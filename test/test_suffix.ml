open Suffix

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let int_array = Alcotest.(array int)

(* ------------------------------------------------------------------ *)
(* Suffix arrays                                                       *)

let test_sa_paper_example () =
  (* The paper's running example s = acagaca (Fig. 1 uses acagaca$; without
     the sentinel the suffix order is the same minus the sentinel row). *)
  let s = "acagaca" in
  check int_array "against naive" (Suffix_array.build_naive s) (Suffix_array.build s)

let test_sa_known_banana_like () =
  (* mississippi restricted to DNA letters is not possible; use a string
     with heavy repetition instead and validate directly. *)
  let s = "aaaaaaaaaa" in
  let sa = Suffix_array.build s in
  check int_array "descending positions" [| 9; 8; 7; 6; 5; 4; 3; 2; 1; 0 |] sa

let test_sa_empty_and_single () =
  check int_array "empty" [||] (Suffix_array.build "");
  check int_array "single" [| 0 |] (Suffix_array.build "g")

let test_sa_valid_on_corpus () =
  let st = Random.State.make [| 17 |] in
  for _ = 1 to 30 do
    let n = 1 + Random.State.int st 300 in
    let s = Test_util.random_dna st n in
    if not (Suffix_array.is_valid s (Suffix_array.build s)) then
      Alcotest.failf "invalid SA for %s" s
  done

let prop_sais_equals_doubling =
  Test_util.qtest ~count:300 "SA-IS = doubling" (Test_util.dna_gen ~hi:400 ())
    (fun s -> Suffix_array.build s = Suffix_array.build_doubling s)

let prop_sais_valid =
  Test_util.qtest ~count:300 "SA-IS valid" (Test_util.dna_gen ~hi:300 ())
    (fun s -> Suffix_array.is_valid s (Suffix_array.build s))

let test_sa_large_random () =
  (* Exercise at least two levels of SA-IS recursion. *)
  let st = Random.State.make [| 23 |] in
  let s = Test_util.random_dna st 100_000 in
  let sa = Suffix_array.build s in
  check int_array "large: equals doubling" (Suffix_array.build_doubling s) sa

let test_sa_periodic () =
  (* Highly periodic inputs stress LMS naming (many equal LMS substrings). *)
  let reps pat k =
    String.concat "" (List.init k (fun _ -> pat))
  in
  List.iter
    (fun s ->
      check int_array
        ("periodic " ^ String.sub s 0 (min 12 (String.length s)))
        (Suffix_array.build_doubling s) (Suffix_array.build s))
    [ reps "acg" 50; reps "at" 100; reps "aacg" 33; reps "a" 64; reps "gacgt" 20 ]

let byte_gen = QCheck2.Gen.(string_size ~gen:char (int_range 0 600))

let prop_sais_bytes_equals_doubling =
  Test_util.qtest ~count:300 "SA-IS = doubling (all bytes)" byte_gen (fun s ->
      Suffix_array.build s = Suffix_array.build_doubling s)

let test_sa_all_byte_values () =
  (* Every byte value, '\000' and '\255' included, in ascending,
     descending and repeated runs: the byte-alphabet entry needs 257
     symbols with the sentinel. *)
  let asc = String.init 256 Char.chr in
  let desc = String.init 256 (fun i -> Char.chr (255 - i)) in
  let st = Random.State.make [| 256 |] in
  let rnd = String.init 2000 (fun _ -> Char.chr (Random.State.int st 256)) in
  List.iter
    (fun s ->
      check int_array "all byte values" (Suffix_array.build_doubling s)
        (Suffix_array.build s))
    [ asc; desc; asc ^ asc ^ desc; String.make 300 '\255'; String.make 300 '\000';
      rnd; rnd ^ rnd ]

let ints_of_cells (sa : Suffix_array.cells) =
  Array.init (Bigarray.Array1.dim sa) (fun i -> Int32.to_int sa.{i})

let test_sais_codes () =
  (* The code-string entry: sentinel first, then SA(s) over codes 1..4. *)
  let s = "acagaca" in
  let codes = Bytes.of_string "\001\002\001\003\001\002\001\000" in
  check int_array "paper example" (Array.append [| 7 |] (Suffix_array.build_naive s))
    (ints_of_cells (Suffix_array.sais_codes codes ~sigma:5));
  check int_array "sentinel only" [| 0 |]
    (ints_of_cells (Suffix_array.sais_codes (Bytes.make 1 '\000') ~sigma:5));
  List.iter
    (fun (what, codes, sigma) ->
      match Suffix_array.sais_codes (Bytes.of_string codes) ~sigma with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "%s accepted" what)
    [
      ("empty", "", 5);
      ("no sentinel", "\001\002", 5);
      ("second sentinel", "\001\000\002\000", 5);
      ("symbol >= sigma", "\001\005\000", 5);
      ("sigma > 256", "\001\000", 257);
    ]

(* ------------------------------------------------------------------ *)
(* Suffix tree                                                         *)

let test_st_contains_all_substrings () =
  let st = Random.State.make [| 31 |] in
  for _ = 1 to 10 do
    let n = 1 + Random.State.int st 80 in
    let s = Test_util.random_dna st n in
    let t = Suffix_tree.build s in
    for i = 0 to n - 1 do
      let j = i + 1 + Random.State.int st (n - i) in
      if not (Suffix_tree.contains t (String.sub s i (j - i))) then
        Alcotest.failf "missing substring %s of %s" (String.sub s i (j - i)) s
    done;
    (* A string with a character not in s is never contained. *)
    check bool "absent" false (Suffix_tree.contains t (s ^ "n"))
  done

let test_st_leaf_count_and_indices () =
  let st = Random.State.make [| 37 |] in
  for _ = 1 to 20 do
    let n = 1 + Random.State.int st 120 in
    let s = Test_util.random_dna st n in
    let t = Suffix_tree.build s in
    let leaves = Suffix_tree.leaves_below t (Suffix_tree.root t) in
    (* One leaf per suffix of s^"$" : n+1 leaves, indices 0..n. *)
    check int "leaf count" (n + 1) (List.length leaves);
    check bool "indices are 0..n" true
      (List.sort compare leaves = List.init (n + 1) (fun i -> i))
  done

let test_st_find_occurrences () =
  (* Walking the pattern from the root and collecting leaves below gives
     exactly the naive occurrence set. *)
  let st = Random.State.make [| 41 |] in
  for _ = 1 to 20 do
    let n = 20 + Random.State.int st 200 in
    let s = Test_util.random_dna st n in
    let t = Suffix_tree.build s in
    let text = Suffix_tree.text t in
    let m = 1 + Random.State.int st 6 in
    let pat = Test_util.random_dna st m in
    (* Walk pat from the root. *)
    let rec walk node i =
      if i >= m then Some node
      else
        match Suffix_tree.find_child t node pat.[i] with
        | None -> None
        | Some child ->
            let start, len = Suffix_tree.edge t child in
            let rec scan d =
              if d >= len || i + d >= m then Some (i + d)
              else if text.[start + d] = pat.[i + d] then scan (d + 1)
              else None
            in
            ( match scan 0 with
            | None -> None
            | Some i' -> if i' >= m then Some child else walk child i' )
    in
    let found =
      match walk (Suffix_tree.root t) 0 with
      | None -> []
      | Some node -> List.sort compare (Suffix_tree.leaves_below t node)
    in
    let expect =
      List.sort compare
        (List.filter (fun p -> p + m <= n)
           (Stringmatch.Naive.find_all ~pattern:pat ~text:s))
    in
    check (Alcotest.list int) "occurrences" expect found
  done

let test_st_rejects_sentinel () =
  match Suffix_tree.build "ac$gt" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

let test_st_node_count_linear () =
  (* A suffix tree on n+1 leaves has at most 2(n+1) nodes. *)
  let st = Random.State.make [| 43 |] in
  for _ = 1 to 10 do
    let n = 1 + Random.State.int st 500 in
    let s = Test_util.random_dna st n in
    let t = Suffix_tree.build s in
    check bool "node bound" true (Suffix_tree.count_nodes t <= 2 * (n + 1))
  done

let () =
  Alcotest.run "suffix"
    [
      ( "suffix_array",
        [
          Alcotest.test_case "paper example" `Quick test_sa_paper_example;
          Alcotest.test_case "all-equal string" `Quick test_sa_known_banana_like;
          Alcotest.test_case "empty and single" `Quick test_sa_empty_and_single;
          Alcotest.test_case "valid on corpus" `Quick test_sa_valid_on_corpus;
          Alcotest.test_case "periodic strings" `Quick test_sa_periodic;
          Alcotest.test_case "large random" `Slow test_sa_large_random;
          prop_sais_equals_doubling;
          prop_sais_valid;
          prop_sais_bytes_equals_doubling;
          Alcotest.test_case "all byte values" `Quick test_sa_all_byte_values;
          Alcotest.test_case "code-string entry" `Quick test_sais_codes;
        ] );
      ( "suffix_tree",
        [
          Alcotest.test_case "contains all substrings" `Quick test_st_contains_all_substrings;
          Alcotest.test_case "leaf count and indices" `Quick test_st_leaf_count_and_indices;
          Alcotest.test_case "occurrences" `Quick test_st_find_occurrences;
          Alcotest.test_case "rejects sentinel" `Quick test_st_rejects_sentinel;
          Alcotest.test_case "node count linear" `Quick test_st_node_count_linear;
        ] );
    ]
