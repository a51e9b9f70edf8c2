type t = Kmismatch.index

let load ?mode path = Kmismatch.load_index ?mode path
let try_run = Kmismatch.try_run
