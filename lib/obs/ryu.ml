(* Ryū (Ulf Adams, "Ryū: fast float-to-string conversion", PLDI 2018),
   the [d2d] step: the shortest decimal in a double's rounding interval,
   closest to the double among the shortest, ties to even.  The 64x128-bit
   products of the reference are done on 30-bit limbs so that every
   partial product and column sum fits an OCaml int. *)

let limb_bits = 30
let limb_mask = (1 lsl limb_bits) - 1

(* Every table entry is a 125- or 126-bit integer stored as five limbs,
   least significant first, in one flat array. *)
let nlimbs = 5

(* DOUBLE_POW5_BITCOUNT = DOUBLE_POW5_INV_BITCOUNT in the reference. *)
let pow5_bitcount = 125
let mantissa_bits = 52
let bias = 1023

(* ceil (log2 (5^e)) for e >= 1, and 1 for e = 0 (valid up to e = 3528). *)
let pow5bits e = ((e * 1217359) lsr 19) + 1

(* floor (log10 (2^e)) and floor (log10 (5^e)), e >= 0. *)
let log10_pow2 e = (e * 78913) lsr 18
let log10_pow5 e = (e * 732923) lsr 20

(* ------------------------------------------------------------------ *)
(* Tables, built once on little-endian bignums of 30-bit limbs          *)
(* ------------------------------------------------------------------ *)

(* pow5_split.(i): 5^i scaled to exactly 125 bits, i < 326.
   pow5_inv_split.(q): floor (2^(pow5bits q - 1 + 125) / 5^q) + 1, q < 342. *)
let pow5_table_size = 326
let pow5_inv_table_size = 342

(* 2^inv_scale is divided by 5 down to 5^341: it must cover the largest
   numerator, pow5bits 341 - 1 + 125 = 916 bits. *)
let inv_scale = pow5bits (pow5_inv_table_size - 1) - 1 + pow5_bitcount
let big_limbs = (inv_scale / limb_bits) + 2

let big_bit b i =
  if i < 0 || i >= big_limbs * limb_bits then 0
  else (b.(i / limb_bits) lsr (i mod limb_bits)) land 1

let big_mul_small b k =
  let carry = ref 0 in
  for i = 0 to big_limbs - 1 do
    let v = (b.(i) * k) + !carry in
    b.(i) <- v land limb_mask;
    carry := v lsr limb_bits
  done

let big_div_small b k =
  let rem = ref 0 in
  for i = big_limbs - 1 downto 0 do
    let v = (!rem lsl limb_bits) lor b.(i) in
    b.(i) <- v / k;
    rem := v mod k
  done

(* Entry [e] of [tab] := bits [shift, shift + 150) of [b]; a negative
   [shift] shifts [b] left. *)
let store tab e b ~shift =
  for l = 0 to nlimbs - 1 do
    let v = ref 0 in
    for bit = limb_bits - 1 downto 0 do
      v := (!v lsl 1) lor big_bit b (shift + (l * limb_bits) + bit)
    done;
    tab.((e * nlimbs) + l) <- !v
  done

let pow5_split =
  let tab = Array.make (pow5_table_size * nlimbs) 0 in
  let b = Array.make big_limbs 0 in
  b.(0) <- 1;
  for i = 0 to pow5_table_size - 1 do
    store tab i b ~shift:(pow5bits i - pow5_bitcount);
    big_mul_small b 5
  done;
  tab

let pow5_inv_split =
  let tab = Array.make (pow5_inv_table_size * nlimbs) 0 in
  let b = Array.make big_limbs 0 in
  b.(inv_scale / limb_bits) <- 1 lsl (inv_scale mod limb_bits);
  for q = 0 to pow5_inv_table_size - 1 do
    (* floor (floor (2^s / 5^q) / 2^t) = floor (2^(s-t) / 5^q) *)
    store tab q b ~shift:(inv_scale - (pow5bits q - 1 + pow5_bitcount));
    (* + 1, carried through the limbs *)
    let l = ref 0 in
    while
      let o = (q * nlimbs) + !l in
      tab.(o) <- tab.(o) + 1;
      tab.(o) > limb_mask
    do
      tab.((q * nlimbs) + !l) <- 0;
      incr l
    done;
    big_div_small b 5
  done;
  tab

(* ------------------------------------------------------------------ *)
(* The conversion                                                       *)
(* ------------------------------------------------------------------ *)

(* floor (m * tab.(e) / 2^j) for m < 2^56 and 90 <= j <= 150 (every
   double needs 118 <= j <= 125); the caller guarantees the quotient is
   below 2^62.  Limbs below 2^90 only carry. *)
let mul_shift m tab e j =
  let o = e * nlimbs in
  let m0 = m land limb_mask and m1 = m lsr limb_bits in
  let c0 = tab.(o) and c1 = tab.(o + 1) and c2 = tab.(o + 2) in
  let c3 = tab.(o + 3) and c4 = tab.(o + 4) in
  let t0 = m0 * c0 in
  let t1 = (m0 * c1) + (m1 * c0) + (t0 lsr limb_bits) in
  let t2 = (m0 * c2) + (m1 * c1) + (t1 lsr limb_bits) in
  let t3 = (m0 * c3) + (m1 * c2) + (t2 lsr limb_bits) in
  let t4 = (m0 * c4) + (m1 * c3) + (t3 lsr limb_bits) in
  let t5 = (m1 * c4) + (t4 lsr limb_bits) in
  (* m * tab.(e) / 2^90 =
     t5 * 2^60 + (t4 land limb_mask) * 2^30 + (t3 land limb_mask) *)
  let s = j - (3 * limb_bits) in
  ((((t4 land limb_mask) lsl limb_bits) lor (t3 land limb_mask)) lsr s)
  lor (t5 lsl ((2 * limb_bits) - s))

let rec pow5_factor v n =
  if v mod 5 <> 0 then n else pow5_factor (v / 5) (n + 1)

let multiple_of_pow5 v p = pow5_factor v 0 >= p
let multiple_of_pow2 v p = v land ((1 lsl p) - 1) = 0

let shortest x =
  let bits = Int64.bits_of_float x in
  let mantissa = Int64.to_int bits land ((1 lsl mantissa_bits) - 1) in
  let exponent =
    Int64.to_int (Int64.shift_right_logical bits mantissa_bits) land 0x7FF
  in
  if exponent = 0x7FF || (exponent = 0 && mantissa = 0) then
    invalid_arg "Ryu.shortest: zero or non-finite";
  (* Step 1: x = m2 * 2^e2, two extra bits for the interval bounds. *)
  let e2, m2 =
    if exponent = 0 then (1 - bias - mantissa_bits - 2, mantissa)
    else
      ( exponent - bias - mantissa_bits - 2,
        (1 lsl mantissa_bits) lor mantissa )
  in
  let accept_bounds = m2 land 1 = 0 in
  (* Step 2: the interval (mm, mp) around mv, in units of 2^e2.  Its lower
     half is narrower at a power of two (mm_shift = 0). *)
  let mv = 4 * m2 in
  let mm_shift = if mantissa <> 0 || exponent <= 1 then 1 else 0 in
  let mp = mv + 2 and mm = mv - 1 - mm_shift in
  (* Step 3: scale all three by 10^-e10 into integers vr, vp, vm, and note
     whether the dropped parts of vm and vr were all zeros. *)
  let vm_tz = ref false and vr_tz = ref false in
  let e10, vr, vp, vm =
    if e2 >= 0 then begin
      let q = log10_pow2 e2 - if e2 > 3 then 1 else 0 in
      let i = -e2 + q + pow5_bitcount + pow5bits q - 1 in
      let vp = mul_shift mp pow5_inv_split q i in
      let vp =
        if q <= 21 then
          if mv mod 5 = 0 then begin
            vr_tz := multiple_of_pow5 mv q;
            vp
          end
          else if accept_bounds then begin
            vm_tz := multiple_of_pow5 mm q;
            vp
          end
          else if multiple_of_pow5 mp q then vp - 1
          else vp
        else vp
      in
      (q, mul_shift mv pow5_inv_split q i, vp, mul_shift mm pow5_inv_split q i)
    end
    else begin
      let q = log10_pow5 (-e2) - if -e2 > 1 then 1 else 0 in
      let i = -e2 - q in
      let j = q - (pow5bits i - pow5_bitcount) in
      let vp = mul_shift mp pow5_split i j in
      let vp =
        if q <= 1 then begin
          vr_tz := true;
          if accept_bounds then begin
            vm_tz := mm_shift = 1;
            vp
          end
          else vp - 1
        end
        else begin
          if q < 63 then vr_tz := multiple_of_pow2 mv q;
          vp
        end
      in
      (q + e2, mul_shift mv pow5_split i j, vp, mul_shift mm pow5_split i j)
    end
  in
  (* Step 4: drop digits while the interval still holds a shorter
     candidate, then round vr. *)
  let vr = ref vr and vp = ref vp and vm = ref vm in
  let removed = ref 0 and last = ref 0 in
  let drop () =
    vr_tz := !vr_tz && !last = 0;
    last := !vr mod 10;
    vr := !vr / 10;
    vp := !vp / 10;
    vm := !vm / 10;
    incr removed
  in
  while !vp / 10 > !vm / 10 do
    vm_tz := !vm_tz && !vm mod 10 = 0;
    drop ()
  done;
  if !vm_tz then
    while !vm mod 10 = 0 do
      drop ()
    done;
  (* an exact ...50...0 tail rounds to even *)
  if !vr_tz && !last = 5 && !vr mod 2 = 0 then last := 4;
  let round_up =
    (!vr = !vm && ((not accept_bounds) || not !vm_tz)) || !last >= 5
  in
  ((if round_up then !vr + 1 else !vr), e10 + !removed)
