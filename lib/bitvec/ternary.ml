type t = { value : Bitvec.t; mask : Bitvec.t }

let make ~value ~mask =
  if Bitvec.width value <> Bitvec.width mask then
    invalid_arg "Ternary.make: width mismatch";
  { value = Bitvec.logand value mask; mask }

let width t = Bitvec.width t.value
let value t = t.value
let mask t = t.mask

let matches t v = Bitvec.equal t.value (Bitvec.logand v t.mask)

let exact v = { value = v; mask = Bitvec.ones (Bitvec.width v) }
let wildcard w = { value = Bitvec.zero w; mask = Bitvec.zero w }
let is_wildcard t = Bitvec.is_zero t.mask

let of_prefix p =
  let mask = Bitvec.prefix_mask ~width:(Prefix.width p) (Prefix.len p) in
  { value = Prefix.value p; mask }
