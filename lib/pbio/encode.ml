(** NDR (Natural Data Representation) encoding.

    The sender's native bytes go onto the wire unchanged: the payload is
    the struct's base image (including compiler padding) followed by the
    transitive closure of its heap blocks (strings, dynamic arrays), with
    every pointer slot rewritten to a payload-relative offset — written in
    the *sender's* pointer width and byte order, because the whole point is
    that the sender does no conversion work at all.

    Encoding is two walks over the same memory: {!length} sizes the
    payload (base image, strings with their NULs, arrays — blocks are
    appended unaligned, in field order, depth first), then {!emit} copies
    the blocks into a buffer the caller allocated once, patching pointer
    slots as it goes. Allocation contract: {!emit} allocates nothing, so
    [Pbio.message] allocates only the message it returns. *)

open Omf_machine

exception Encode_error of string

let enc_error fmt = Printf.ksprintf (fun s -> raise (Encode_error s)) fmt

let check_abi (mem : Memory.t) (fmt : Format.t) =
  (* physical equality covers the hot path; the structural check is only
     for formats registered under a different-but-equal ABI profile *)
  if
    Memory.abi mem != fmt.Format.abi
    && not (Abi.layout_equal (Memory.abi mem) fmt.Format.abi)
  then
    enc_error "format %s was registered for ABI %s but memory uses %s"
      fmt.Format.name fmt.Format.abi.Abi.name (Memory.abi mem).Abi.name

(* the count in the control field [fields.(at)] of the record at [addr] *)
let read_count mem (fmt : Format.t) addr at =
  let cf = fmt.Format.fields.(at) in
  let slot = addr + cf.Format.rf_layout.Layout.offset in
  let size = cf.Format.rf_layout.Layout.elem_size in
  let n = Memory.read_count mem slot ~size in
  if n < 0 then
    enc_error "format %s: negative dynamic array count %Ld in %S"
      fmt.Format.name (Memory.read_int mem slot ~size) cf.Format.rf_name;
  n

(* The data pointer of a dynamic array field holding [count] elements. *)
let array_data mem (fmt : Format.t) (f : Format.rfield) src_addr count =
  let ptr =
    Memory.read_pointer mem (src_addr + f.Format.rf_layout.Layout.offset)
  in
  if count <> 0 && ptr = Memory.null then
    enc_error "format %s: %S has count %d but a null data pointer"
      fmt.Format.name f.Format.rf_name count;
  ptr

(* ------------------------------------------------------------------ *)
(* Sizing                                                              *)
(* ------------------------------------------------------------------ *)

let string_size mem slot =
  let ptr = Memory.read_pointer mem slot in
  if ptr = Memory.null then 0 else Memory.strlen mem ptr + 1

(* Bytes the record at [src_addr] appends after its own image: strings
   and dynamic arrays, transitively. *)
let rec heap_size mem (fmt : Format.t) src_addr : int =
  let acc = ref 0 in
  for i = 0 to Array.length fmt.Format.fields - 1 do
    acc := !acc + field_size mem fmt src_addr fmt.Format.fields.(i)
  done;
  !acc

and field_size mem fmt src_addr (f : Format.rfield) : int =
  let slot = src_addr + f.Format.rf_layout.Layout.offset in
  let elem_size = f.Format.rf_layout.Layout.elem_size in
  match (f.Format.rf_dim, f.Format.rf_elem) with
  | Format.Rscalar, Format.Rstring -> string_size mem slot
  | Format.Rscalar, Format.Rnested nested -> heap_size mem nested slot
  | Format.Rfixed n, Format.Rstring -> strings_size mem slot elem_size n
  | Format.Rfixed n, Format.Rnested nested ->
    records_size mem nested slot elem_size n
  | Format.Rvar { at; _ }, elem -> (
    let count = read_count mem fmt src_addr at in
    let ptr = array_data mem fmt f src_addr count in
    if count = 0 || ptr = Memory.null then 0
    else
      (count * elem_size)
      +
      match elem with
      | Format.Rnested nested -> records_size mem nested ptr elem_size count
      | Format.Rstring -> strings_size mem ptr elem_size count
      | Format.Rint _ | Format.Rfloat _ | Format.Rchar -> 0)
  | Format.Rscalar, (Format.Rint _ | Format.Rfloat _ | Format.Rchar)
  | Format.Rfixed _, (Format.Rint _ | Format.Rfloat _ | Format.Rchar) -> 0

and strings_size mem slot stride n =
  let acc = ref 0 in
  for i = 0 to n - 1 do
    acc := !acc + string_size mem (slot + (i * stride))
  done;
  !acc

and records_size mem nested slot stride n =
  let acc = ref 0 in
  for i = 0 to n - 1 do
    acc := !acc + heap_size mem nested (slot + (i * stride))
  done;
  !acc

(** [length mem fmt addr] is the length of the NDR payload of the struct
    at [addr]. *)
let length (mem : Memory.t) (fmt : Format.t) (addr : int) : int =
  check_abi mem fmt;
  fmt.Format.layout.Layout.size + heap_size mem fmt addr

(* ------------------------------------------------------------------ *)
(* Emission                                                            *)
(* ------------------------------------------------------------------ *)

(* Emission writes into [buf], whose payload starts at [p0]; [pos] is the
   next free absolute offset, threaded through and returned. Pointer
   slots are patched with payload-relative offsets in the sender's own
   byte order and pointer width. *)

let patch_pointer mem buf ~at v =
  Endian.write_offset (Memory.abi mem).Abi.endianness buf ~off:at
    ~size:(Memory.pointer_size mem) v

(* Append the string at [src_slot]'s pointer (with its NUL) and patch the
   copied slot at [at]. *)
let emit_string mem buf ~p0 ~at src_slot pos =
  let ptr = Memory.read_pointer mem src_slot in
  if ptr = Memory.null then begin
    patch_pointer mem buf ~at 0;
    pos
  end
  else begin
    let len = Memory.strlen mem ptr + 1 in
    Memory.blit_to_buffer mem ptr len ~dst:buf ~dst_off:pos;
    patch_pointer mem buf ~at (pos - p0);
    pos + len
  end

(* [patch_record] fixes up the record whose image was copied to [at]
   from [src_addr], appending its heap blocks from [pos]. *)
let rec patch_record mem buf ~p0 (fmt : Format.t) src_addr at pos : int =
  let pos = ref pos in
  for i = 0 to Array.length fmt.Format.fields - 1 do
    pos := patch_field mem buf ~p0 fmt src_addr at !pos fmt.Format.fields.(i)
  done;
  !pos

and patch_field mem buf ~p0 fmt src_addr at pos (f : Format.rfield) : int =
  let foff = f.Format.rf_layout.Layout.offset in
  let elem_size = f.Format.rf_layout.Layout.elem_size in
  match (f.Format.rf_dim, f.Format.rf_elem) with
  | Format.Rscalar, Format.Rstring ->
    emit_string mem buf ~p0 ~at:(at + foff) (src_addr + foff) pos
  | Format.Rscalar, Format.Rnested nested ->
    patch_record mem buf ~p0 nested (src_addr + foff) (at + foff) pos
  | Format.Rfixed n, Format.Rstring ->
    emit_strings mem buf ~p0 ~at:(at + foff) (src_addr + foff) elem_size n pos
  | Format.Rfixed n, Format.Rnested nested ->
    patch_records mem buf ~p0 nested (src_addr + foff) (at + foff) elem_size n
      pos
  | Format.Rvar { at = control; _ }, elem ->
    let count = read_count mem fmt src_addr control in
    let ptr = array_data mem fmt f src_addr count in
    if count = 0 || ptr = Memory.null then begin
      patch_pointer mem buf ~at:(at + foff) 0;
      pos
    end
    else begin
      let len = count * elem_size in
      Memory.blit_to_buffer mem ptr len ~dst:buf ~dst_off:pos;
      patch_pointer mem buf ~at:(at + foff) (pos - p0);
      match elem with
      | Format.Rnested nested ->
        patch_records mem buf ~p0 nested ptr pos elem_size count (pos + len)
      | Format.Rstring ->
        (* char**: each element of the copied pointer block is itself a
           string pointer needing emission and fixup *)
        emit_strings mem buf ~p0 ~at:pos ptr elem_size count (pos + len)
      | Format.Rint _ | Format.Rfloat _ | Format.Rchar -> pos + len
    end
  | Format.Rscalar, (Format.Rint _ | Format.Rfloat _ | Format.Rchar)
  | Format.Rfixed _, (Format.Rint _ | Format.Rfloat _ | Format.Rchar) ->
    (* plain data: already present in the base copy *)
    pos

and emit_strings mem buf ~p0 ~at src stride n pos =
  let pos = ref pos in
  for i = 0 to n - 1 do
    pos :=
      emit_string mem buf ~p0 ~at:(at + (i * stride)) (src + (i * stride)) !pos
  done;
  !pos

and patch_records mem buf ~p0 nested src at stride n pos =
  let pos = ref pos in
  for i = 0 to n - 1 do
    pos :=
      patch_record mem buf ~p0 nested (src + (i * stride)) (at + (i * stride))
        !pos
  done;
  !pos

(** [emit mem fmt addr buf ~off] writes the NDR payload of the struct at
    [addr] into [buf] from [off]: exactly [length mem fmt addr] bytes,
    every one of them written. Allocates nothing. *)
let emit (mem : Memory.t) (fmt : Format.t) (addr : int) (buf : bytes) ~off :
    unit =
  check_abi mem fmt;
  let size = fmt.Format.layout.Layout.size in
  Memory.blit_to_buffer mem addr size ~dst:buf ~dst_off:off;
  ignore (patch_record mem buf ~p0:off fmt addr off (off + size))

(** [payload mem fmt addr] encodes the struct at [addr] to an NDR payload
    (no message header; see {!Wire} for framing). *)
let payload (mem : Memory.t) (fmt : Format.t) (addr : int) : bytes =
  let buf = Bytes.create (length mem fmt addr) in
  emit mem fmt addr buf ~off:0;
  buf

(** One-shot convenience: bind [record] in a scratch memory and encode it.
    Production senders keep their data in a long-lived {!Memory.t} and call
    {!payload}; this exists for tests and examples. *)
let payload_of_value (abi : Abi.t) (fmt : Format.t) (record : Value.t) : bytes =
  let mem = Memory.create abi in
  let addr = Native.store mem fmt record in
  payload mem fmt addr
