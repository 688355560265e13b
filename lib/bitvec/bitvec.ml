(* Bitvectors are stored as little-endian arrays of 16-bit limbs. A 16-bit
   limb keeps every operation (including long multiplication) comfortably
   within OCaml's native int range. The top limb is always masked to the
   declared width, so structural equality of the limb arrays coincides with
   value equality. *)

let limb_bits = 16
let limb_mask = 0xFFFF

type t = { width : int; limbs : int array }

let width t = t.width

let limbs_for w = (w + limb_bits - 1) / limb_bits

(* Mask the top limb so unused high bits are zero. *)
let normalize width limbs =
  let n = limbs_for width in
  let top_bits = width - ((n - 1) * limb_bits) in
  let top_mask = if top_bits >= limb_bits then limb_mask else (1 lsl top_bits) - 1 in
  limbs.(n - 1) <- limbs.(n - 1) land top_mask;
  { width; limbs }

let check_width name w = if w < 1 then invalid_arg (name ^ ": width must be >= 1")

let zero w =
  check_width "Bitvec.zero" w;
  { width = w; limbs = Array.make (limbs_for w) 0 }

let ones w =
  check_width "Bitvec.ones" w;
  normalize w (Array.make (limbs_for w) limb_mask)

let of_int ~width:w n =
  check_width "Bitvec.of_int" w;
  if n < 0 then invalid_arg "Bitvec.of_int: negative";
  let limbs = Array.make (limbs_for w) 0 in
  let rec fill i n = if n <> 0 && i < Array.length limbs then begin
      limbs.(i) <- n land limb_mask;
      fill (i + 1) (n lsr limb_bits)
    end
  in
  fill 0 n;
  normalize w limbs

let of_int64 ~width:w n =
  check_width "Bitvec.of_int64" w;
  let limbs = Array.make (limbs_for w) 0 in
  let rec fill i n =
    if not (Int64.equal n 0L) && i < Array.length limbs then begin
      limbs.(i) <- Int64.to_int (Int64.logand n 0xFFFFL);
      fill (i + 1) (Int64.shift_right_logical n limb_bits)
    end
  in
  fill 0 n;
  normalize w limbs

let bit t i =
  if i < 0 || i >= t.width then invalid_arg "Bitvec.bit: index out of range";
  t.limbs.(i / limb_bits) lsr (i mod limb_bits) land 1 = 1

let set_bit limbs i b =
  let j = i / limb_bits and k = i mod limb_bits in
  if b then limbs.(j) <- limbs.(j) lor (1 lsl k)
  else limbs.(j) <- limbs.(j) land lnot (1 lsl k)

let init w f =
  check_width "Bitvec.init" w;
  let limbs = Array.make (limbs_for w) 0 in
  for i = 0 to w - 1 do
    if f i then set_bit limbs i true
  done;
  { width = w; limbs }

(* The 16 bits of [limbs] starting at bit [pos], which may be negative or
   past the end: bits outside the array read as zero. This is the one
   primitive behind the word-level shifts, slices and concatenation. *)
let window limbs pos =
  let n = Array.length limbs in
  let get j = if j < 0 || j >= n then 0 else limbs.(j) in
  (* Floor division and remainder by [limb_bits] = 16, negatives included. *)
  let q = pos asr 4 and r = pos land (limb_bits - 1) in
  if r = 0 then get q
  else ((get q lsr r) lor (get (q + 1) lsl (limb_bits - r))) land limb_mask

let of_bin_string s =
  let w = String.length s in
  check_width "Bitvec.of_bin_string" w;
  let limbs = Array.make (limbs_for w) 0 in
  String.iteri
    (fun i c ->
      match c with
      | '0' -> ()
      | '1' -> set_bit limbs (w - 1 - i) true
      | _ -> invalid_arg "Bitvec.of_bin_string: not a binary digit")
    s;
  normalize w limbs

let hex_digit c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> invalid_arg "Bitvec.of_hex_string: not a hex digit"

(* Digit [i] (least significant first) sits at bit [4 * i], which never
   straddles a limb; digits past the width are still checked. *)
let of_hex_string ~width:w s =
  check_width "Bitvec.of_hex_string" w;
  let limbs = Array.make (limbs_for w) 0 in
  let n = String.length s in
  for i = 0 to n - 1 do
    let d = hex_digit s.[n - 1 - i] in
    let pos = i * 4 in
    if pos < w then
      limbs.(pos / limb_bits) <- limbs.(pos / limb_bits) lor (d lsl (pos mod limb_bits))
  done;
  normalize w limbs

let to_int t =
  (* An OCaml int holds 62 value bits safely. *)
  let max_limbs = 62 / limb_bits in
  let n = Array.length t.limbs in
  let rec all_zero i = i >= n || (t.limbs.(i) = 0 && all_zero (i + 1)) in
  if not (all_zero max_limbs) then None
  else begin
    let v = ref 0 in
    for i = min n max_limbs - 1 downto 0 do
      v := (!v lsl limb_bits) lor t.limbs.(i)
    done;
    Some !v
  end

let to_int_exn t =
  match to_int t with
  | Some n -> n
  | None -> invalid_arg "Bitvec.to_int_exn: does not fit in int"

let is_zero t = Array.for_all (fun l -> l = 0) t.limbs

let is_ones t =
  let n = Array.length t.limbs in
  let top_bits = t.width - ((n - 1) * limb_bits) in
  let rec full i = i >= n - 1 || (t.limbs.(i) = limb_mask && full (i + 1)) in
  full 0 && t.limbs.(n - 1) = (1 lsl top_bits) - 1

let to_bin_string t = String.init t.width (fun i -> if bit t (t.width - 1 - i) then '1' else '0')

(* The top limb is masked, so the partial top digit reads only real bits. *)
let to_hex_string t =
  let ndigits = (t.width + 3) / 4 in
  String.init ndigits (fun i ->
      let j = ndigits - 1 - i in
      "0123456789abcdef".[(t.limbs.(j / 4) lsr (4 * (j mod 4))) land 0xF])

let popcount t =
  Array.fold_left
    (fun acc l ->
      let rec pc l acc = if l = 0 then acc else pc (l lsr 1) (acc + (l land 1)) in
      pc l acc)
    0 t.limbs

let equal a b = a.width = b.width && a.limbs = b.limbs

let compare a b =
  if a.width <> b.width then invalid_arg "Bitvec.compare: width mismatch";
  let rec go i = if i < 0 then 0 else
      let c = Int.compare a.limbs.(i) b.limbs.(i) in
      if c <> 0 then c else go (i - 1)
  in
  go (Array.length a.limbs - 1)

let ult a b = compare a b < 0
let ule a b = compare a b <= 0

let hash t = Hashtbl.hash (t.width, t.limbs)

(* The masked kernels read [v land m] limb by limb and build nothing, so a
   table probe can hash and compare masked keys without allocating. *)
let check_masked name v m =
  if v.width <> m.width then invalid_arg ("Bitvec." ^ name ^ ": width mismatch")

let hash_masked h v m =
  check_masked "hash_masked" v m;
  let h = ref h in
  for i = 0 to Array.length v.limbs - 1 do
    (* FNV-1a's 64-bit prime, one limb at a time. *)
    h := (!h lxor (v.limbs.(i) land m.limbs.(i))) * 0x100000001b3
  done;
  !h

let equal_masked v m k =
  check_masked "equal_masked" v m;
  k.width = v.width
  &&
  let n = Array.length v.limbs and i = ref 0 in
  while !i < n && v.limbs.(!i) land m.limbs.(!i) = k.limbs.(!i) do incr i done;
  !i = n

let map2 name f a b =
  if a.width <> b.width then invalid_arg ("Bitvec." ^ name ^ ": width mismatch");
  normalize a.width (Array.init (Array.length a.limbs) (fun i -> f a.limbs.(i) b.limbs.(i)))

let logand a b = map2 "logand" ( land ) a b
let logor a b = map2 "logor" ( lor ) a b
let logxor a b = map2 "logxor" ( lxor ) a b
let lognot a = normalize a.width (Array.map (fun l -> lnot l land limb_mask) a.limbs)

(* Result limb [i] is the window of [t] at [i * limb_bits - k]; a shift by
   the width or more leaves zero (and keeps the positions from overflowing). *)
let shift_left t k =
  if k < 0 then invalid_arg "Bitvec.shift_left: negative shift";
  if k >= t.width then zero t.width
  else
    normalize t.width
      (Array.init (Array.length t.limbs) (fun i -> window t.limbs ((i * limb_bits) - k)))

let shift_right t k =
  if k < 0 then invalid_arg "Bitvec.shift_right: negative shift";
  if k >= t.width then zero t.width
  else
    normalize t.width
      (Array.init (Array.length t.limbs) (fun i -> window t.limbs ((i * limb_bits) + k)))

let add a b =
  if a.width <> b.width then invalid_arg "Bitvec.add: width mismatch";
  let n = Array.length a.limbs in
  let limbs = Array.make n 0 in
  let carry = ref 0 in
  for i = 0 to n - 1 do
    let s = a.limbs.(i) + b.limbs.(i) + !carry in
    limbs.(i) <- s land limb_mask;
    carry := s lsr limb_bits
  done;
  normalize a.width limbs

let lognot' = lognot

let neg a = add (lognot' a) (of_int ~width:a.width 1)
let sub a b = add a (neg b)

let mul a b =
  if a.width <> b.width then invalid_arg "Bitvec.mul: width mismatch";
  let n = Array.length a.limbs in
  let acc = Array.make n 0 in
  for i = 0 to n - 1 do
    if a.limbs.(i) <> 0 then begin
      let carry = ref 0 in
      for j = 0 to n - 1 - i do
        let s = acc.(i + j) + (a.limbs.(i) * b.limbs.(j)) + !carry in
        acc.(i + j) <- s land limb_mask;
        carry := s lsr limb_bits
      done
    end
  done;
  normalize a.width acc

(* [lo]'s unused top bits are zero, so [hi] can be or-ed in above them. *)
let concat hi lo =
  let w = hi.width + lo.width in
  normalize w
    (Array.init (limbs_for w) (fun i ->
         window lo.limbs (i * limb_bits) lor window hi.limbs ((i * limb_bits) - lo.width)))

let extract ~hi ~lo t =
  if lo < 0 || hi >= t.width || hi < lo then invalid_arg "Bitvec.extract: bad range";
  let w = hi - lo + 1 in
  normalize w (Array.init (limbs_for w) (fun i -> window t.limbs (lo + (i * limb_bits))))

let zero_extend w t =
  if w < t.width then invalid_arg "Bitvec.zero_extend: narrower target";
  if w = t.width then t
  else begin
    let limbs = Array.make (limbs_for w) 0 in
    Array.blit t.limbs 0 limbs 0 (Array.length t.limbs);
    normalize w limbs
  end

let prefix_mask ~width:w len =
  check_width "Bitvec.prefix_mask" w;
  if len < 0 || len > w then invalid_arg "Bitvec.prefix_mask: bad prefix length";
  (* Bits [w - len, w) are set: limbs wholly above the boundary are full,
     the limb holding it is partly set, and normalize trims the top. *)
  let start = w - len in
  normalize w
    (Array.init (limbs_for w) (fun i ->
         let base = i * limb_bits in
         if base >= start then limb_mask
         else if base + limb_bits <= start then 0
         else (limb_mask lsl (start - base)) land limb_mask))

let random rand_int w =
  check_width "Bitvec.random" w;
  let limbs = Array.init (limbs_for w) (fun _ -> rand_int (limb_mask + 1)) in
  normalize w limbs

let pp fmt t = Format.fprintf fmt "0x%s#%d" (to_hex_string t) t.width

let of_bytes_be s =
  let n = String.length s in
  if n = 0 then invalid_arg "Bitvec.of_bytes_be: empty";
  (* Byte [j] (least significant first) is half of limb [j / 2]. *)
  let byte j = if j < n then Char.code s.[n - 1 - j] else 0 in
  { width = 8 * n;
    limbs = Array.init ((n + 1) / 2) (fun i -> byte (2 * i) lor (byte ((2 * i) + 1) lsl 8)) }

(* Bits [pos, pos + len) of [limbs], for [len <= 8]: at most two limbs. *)
let bits_at limbs pos len =
  let q = pos lsr 4 and r = pos land (limb_bits - 1) in
  let v = limbs.(q) lsr r in
  let v = if r + len > limb_bits then v lor (limbs.(q + 1) lsl (limb_bits - r)) else v in
  v land ((1 lsl len) - 1)

(* Each step fills what is left of one byte with the next bits down from
   the top of [t]. *)
let blit_be t b off =
  let pos = ref off and rest = ref t.width in
  while !rest > 0 do
    let used = !pos land 7 in
    let take = if 8 - used < !rest then 8 - used else !rest in
    let byte = !pos lsr 3 in
    let chunk = bits_at t.limbs (!rest - take) take lsl (8 - used - take) in
    Bytes.set b byte (Char.unsafe_chr (Char.code (Bytes.get b byte) lor chunk));
    pos := !pos + take;
    rest := !rest - take
  done

(* Stream bits [start, start + len) of [s], for [len <= 16]: at most three
   bytes, read most significant first. *)
let stream_bits s start len =
  let first = start lsr 3 and last = (start + len - 1) lsr 3 in
  let acc = ref 0 in
  for b = first to last do
    acc := (!acc lsl 8) lor Char.code (String.unsafe_get s b)
  done;
  (!acc lsr (((last + 1) * 8) - (start + len))) land ((1 lsl len) - 1)

(* Limb [j] holds the value's bits [16 j, 16 j + 16), which end [16 j]
   bits before the field's last stream bit. *)
let read_be s off w =
  check_width "Bitvec.read_be" w;
  if off < 0 || off + w > 8 * String.length s then invalid_arg "Bitvec.read_be: out of range";
  let limbs = Array.make (limbs_for w) 0 in
  for j = 0 to Array.length limbs - 1 do
    let stop = off + w - (j * limb_bits) in
    let len = if stop - off < limb_bits then stop - off else limb_bits in
    limbs.(j) <- stream_bits s (stop - len) len
  done;
  { width = w; limbs }

let to_bytes_be t =
  if t.width mod 8 <> 0 then invalid_arg "Bitvec.to_bytes_be: width not a byte multiple";
  let n = t.width / 8 in
  String.init n (fun i ->
      let j = n - 1 - i in
      Char.chr ((t.limbs.(j / 2) lsr (8 * (j mod 2))) land 0xFF))
