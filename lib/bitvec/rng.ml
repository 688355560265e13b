type t = { mutable state : int64 }

let golden = 0x9E3779B97F4A7C15L

let create seed = { state = Int64.of_int seed }

let next t =
  t.state <- Int64.add t.state golden;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: non-positive bound";
  (* Use the top bits; reject nothing since modulo bias is negligible for
     our fuzzing purposes but we still fold 62 bits for quality. *)
  let raw = Int64.to_int (Int64.shift_right_logical (next t) 2) in
  raw mod bound

let bool t = Int64.logand (next t) 1L = 1L

let bitvec t w = Bitvec.random (fun bound -> int t bound) w

let choose t xs =
  match xs with
  | [] -> invalid_arg "Rng.choose: empty list"
  | _ -> List.nth xs (int t (List.length xs))

let choose_weighted t xs =
  let total = List.fold_left (fun acc (_, w) -> acc + max 0 w) 0 xs in
  if total <= 0 then invalid_arg "Rng.choose_weighted: no positive weights";
  let k = int t total in
  let rec pick k = function
    | [] -> invalid_arg "Rng.choose_weighted: empty"
    | (x, w) :: rest -> if k < w then x else pick (k - w) rest
  in
  pick k (List.filter (fun (_, w) -> w > 0) xs)

let shuffle t xs =
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done;
  Array.to_list a
