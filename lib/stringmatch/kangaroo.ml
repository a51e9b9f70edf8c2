type t = { m : int; n : int; pair : Suffix.Lce.pair }

let make ~pattern ~text =
  {
    m = String.length pattern;
    n = String.length text;
    pair = Suffix.Lce.make_pair pattern text;
  }

let mismatches_at t ~pos ~limit =
  if pos < 0 || pos + t.m > t.n then
    invalid_arg "Kangaroo.mismatches_at: window out of range";
  let rec jump offset found count =
    if count >= limit || offset >= t.m then List.rev found
    else begin
      let l = Suffix.Lce.lce_pair t.pair offset (pos + offset) in
      let mis = offset + l in
      if mis >= t.m then List.rev found
      else jump (mis + 1) (mis :: found) (count + 1)
    end
  in
  jump 0 [] 0

let distance_at t ~pos ~k =
  let ms = mismatches_at t ~pos ~limit:(k + 1) in
  let d = List.length ms in
  if d <= k then Some d else None

(* ------------------------------------------------------------------ *)
(* Direct verification: when the LCE structure cannot pay for itself,
   scan every window directly with an early-exit budget instead.  Both
   fallbacks return exactly the (position, distance) pairs the LCE path
   would — the choice is purely a cost model. *)

(* Scalar fallback bound: an early-exit window scan does O(k+1) expected
   work on unrelated windows, and even its O(m) worst case stays under
   two kernel words of bases — cheaper than building the suffix
   structures of pattern#text that [make] needs. *)
let scalar_fallback_max = 2 * Fmindex.Packed_text.word_lanes

(* The packed kernel compares 28 bases per word op, so a full window
   costs ceil(m/28) word ops against the k+1 O(1)-but-heavy LCE queries
   of a kangaroo probe; the kernel also early-exits.  Prefer it while a
   window costs at most ~4 word ops per allowed mismatch. *)
let packed_pays ~m ~k =
  (m + Fmindex.Packed_text.word_lanes - 1) / Fmindex.Packed_text.word_lanes
  <= 4 * (k + 1)

let packable pattern =
  pattern <> ""
  && String.for_all
       (fun c -> c = 'a' || c = 'c' || c = 'g' || c = 't')
       pattern

let scan_packed pt pattern ~k =
  let m = String.length pattern in
  let n = Fmindex.Packed_text.length pt in
  let pp = Fmindex.Packed_text.Pattern.make pattern in
  let acc = ref [] in
  for pos = n - m downto 0 do
    Deadline.poll ();
    let d = Fmindex.Packed_text.hamming ~limit:k pt pp ~pos in
    if d <= k then acc := (pos, d) :: !acc
  done;
  !acc

let scan_scalar ~pattern ~text ~k =
  let m = String.length pattern and n = String.length text in
  let acc = ref [] in
  for pos = n - m downto 0 do
    Deadline.poll ();
    let d = Hamming.distance_at ~limit:k ~pattern ~text pos in
    if d <= k then acc := (pos, d) :: !acc
  done;
  !acc

let scan_lce ~pattern ~text ~k =
  let t = make ~pattern ~text in
  let acc = ref [] in
  for pos = t.n - t.m downto 0 do
    Deadline.poll ();
    match distance_at t ~pos ~k with
    | Some d -> acc := (pos, d) :: !acc
    | None -> ()
  done;
  !acc

let search ?ptext ~pattern ~k text =
  if k < 0 then invalid_arg "Kangaroo.search: negative k";
  (* A window holds at most m mismatches, so any budget k >= m behaves
     exactly like k = m; clamping also keeps the k+1 jump limit below
     from overflowing for absurd budgets (the differential fuzzer caught
     [k = max_int] reporting every window at distance 0). *)
  let k = min k (String.length pattern) in
  let m = String.length pattern and n = String.length text in
  if m > n then []
  else
    match ptext with
    | Some pt
      when Fmindex.Packed_text.length pt = n
           && packable pattern && packed_pays ~m ~k ->
        scan_packed pt pattern ~k
    | _ ->
        if m <= scalar_fallback_max then scan_scalar ~pattern ~text ~k
        else scan_lce ~pattern ~text ~k

let positions ~pattern ~text ~k = List.map fst (search ~pattern ~k text)
