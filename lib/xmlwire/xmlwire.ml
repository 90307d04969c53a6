(** XML as a *wire format* (XML-RPC style): the text baseline.

    This is the approach the paper argues against for high-performance
    data exchange: every record is converted from binary memory to ASCII
    text, transmitted with per-field markup, and parsed and re-binarised
    on the receiving side. It is self-describing and needs no a-priori
    agreement, but pays (a) binary->text->binary conversion on both ends
    and (b) a 6-8x message expansion (section 6).

    Conventions:
    - one element per field: [<fltNum>1771</fltNum>];
    - arrays repeat the element; dynamic-array control fields are implied
      by the repetition count and not transmitted, so arrays that share
      one control must repeat equally often;
    - chars travel as numeric character codes, floats as shortest
      round-trip decimal, strings as escaped character data. *)

open Omf_machine
open Omf_pbio
module Decode = Omf_util.Decode

(* a fault: at offset 0, as the layer reads its text whole *)
let bad reason = Decode.fail "xml" 0 reason

(* ------------------------------------------------------------------ *)
(* Encoding                                                             *)
(* ------------------------------------------------------------------ *)

let float_text ~size v =
  if size = 4 then Printf.sprintf "%.9g" v else Printf.sprintf "%.17g" v

let rec element_of_record (fmt : Format.t) (v : Value.t) : Omf_xml.Doc.element
    =
  (match v with
  | Value.Record _ | Value.Struct _ -> ()
  | v -> Value.type_error "expected a record, got %s" (Value.to_string v));
  let children =
    List.concat_map
      (fun (f : Format.rfield) ->
        if f.Format.rf_counts >= 0 then []
        else
          let fv =
            match Value.lookup f.Format.rf_name v with
            | fv -> fv
            | exception Not_found ->
              Value.type_error "format %s: value lacks field %S"
                fmt.Format.name f.Format.rf_name
          in
          let size = f.Format.rf_layout.Layout.elem_size in
          let scalar fv : Omf_xml.Doc.node list =
            match (f.Format.rf_elem, fv) with
            | Format.Rint _, _ ->
              [ Omf_xml.Doc.Text (Int64.to_string (Value.to_int64 fv)) ]
            | Format.Rfloat _, _ ->
              [ Omf_xml.Doc.Text (float_text ~size (Value.to_float_exn fv)) ]
            | Format.Rchar, Value.Char ch ->
              [ Omf_xml.Doc.Text (string_of_int (Char.code ch)) ]
            | Format.Rchar, _ ->
              [ Omf_xml.Doc.Text (Int64.to_string (Value.to_int64 fv)) ]
            | Format.Rstring, _ ->
              let s = Value.to_string_exn fv in
              if String.equal s "" then [] else [ Omf_xml.Doc.Text s ]
            | Format.Rnested nested, _ ->
              (element_of_record nested fv).Omf_xml.Doc.children
          in
          let mk children =
            Omf_xml.Doc.Element
              (Omf_xml.Doc.element ~children f.Format.rf_name)
          in
          match (f.Format.rf_dim, f.Format.rf_elem, fv) with
          | Format.Rscalar, _, _ -> [ mk (scalar fv) ]
          | Format.Rfixed _, Format.Rchar, Value.String s ->
            [ mk (if String.equal s "" then [] else [ Omf_xml.Doc.Text s ]) ]
          | (Format.Rfixed _ | Format.Rvar _), _, Value.Array a ->
            Array.to_list (Array.map (fun e -> mk (scalar e)) a)
          | (Format.Rfixed _ | Format.Rvar _), _, Value.Floats a ->
            List.init (Float.Array.length a) (fun i ->
                mk (scalar (Value.Float (Float.Array.get a i))))
          | _, _, other ->
            Value.type_error "format %s, field %S: expected an array, got %s"
              fmt.Format.name f.Format.rf_name (Value.to_string other))
      (Array.to_list fmt.Format.fields)
  in
  Omf_xml.Doc.element ~children fmt.Format.name

(** [encode_value fmt v] renders the record as an XML text message. *)
let encode_value (fmt : Format.t) (v : Value.t) : string =
  Omf_xml.Write.element_to_string (element_of_record fmt v)

(** [encode mem fmt addr] is the full sender-side cost the paper talks
    about: read native binary data and convert it to ASCII markup. *)
let encode (mem : Memory.t) (fmt : Format.t) (addr : int) : string =
  encode_value fmt (Native.load mem fmt addr)

(* ------------------------------------------------------------------ *)
(* Decoding                                                             *)
(* ------------------------------------------------------------------ *)

(* the number [parse] reads in text [s] *)
let number parse s =
  match parse (String.trim s) with Some v -> v | None -> bad Inconsistent

(* the record in [fmt]'s positional form, as {!Native.load} returns it:
   float arrays as [Floats], each control field holding its array's
   repetition count *)
let rec record_of_element (fmt : Format.t) (el : Omf_xml.Doc.element) :
    Value.t =
  let names = fmt.Format.names in
  let values = Array.make (Array.length names) (Value.Int 0L) in
  let scalar (f : Format.rfield) (child : Omf_xml.Doc.element) : Value.t =
    let text = Omf_xml.Doc.text child in
    match f.Format.rf_elem with
    | Format.Rint { signed; _ } ->
      let v = number Int64.of_string_opt text in
      if signed then Value.Int v else Value.Uint v
    | Format.Rfloat _ -> Value.Float (number float_of_string_opt text)
    | Format.Rchar ->
      let code = Int64.to_int (number Int64.of_string_opt text) in
      if code < 0 || code > 255 then bad Too_long;
      Value.Char (Char.chr code)
    | Format.Rstring -> Value.String text
    | Format.Rnested nested -> record_of_element nested child
  in
  let array (f : Format.rfield) children =
    match f.Format.rf_elem with
    | Format.Rfloat _ ->
      Value.Floats
        (Float.Array.of_list
           (List.map
              (fun c -> number float_of_string_opt (Omf_xml.Doc.text c))
              children))
    | _ -> Value.Array (Array.of_list (List.map (scalar f) children))
  in
  (* a control field is not sent: it is its arrays' repetition count,
     which must be one count *)
  let set_count i at n =
    let control = fmt.Format.fields.(at) in
    if
      control.Format.rf_counts < i
      && not (Int64.equal (Value.to_int64 values.(at)) (Int64.of_int n))
    then bad Inconsistent;
    values.(at) <-
      (match control.Format.rf_elem with
      | Format.Rint { signed = false; _ } -> Value.Uint (Int64.of_int n)
      | _ -> Value.Int (Int64.of_int n))
  in
  Array.iteri
    (fun i (f : Format.rfield) ->
      if f.Format.rf_counts < 0 then
        let children = Omf_xml.Doc.find_children el f.Format.rf_name in
        match f.Format.rf_dim with
        | Format.Rscalar -> (
          match children with
          | [ child ] -> values.(i) <- scalar f child
          | [] -> bad Truncated
          | _ -> bad Inconsistent)
        | Format.Rfixed n -> (
          match f.Format.rf_elem with
          | Format.Rchar -> (
            match children with
            | [ child ] ->
              let s = Omf_xml.Doc.text child in
              if String.length s > n then bad Too_long;
              values.(i) <- Value.String s
            | _ -> bad Inconsistent)
          | _ ->
            if List.length children <> n then bad Inconsistent;
            values.(i) <- array f children)
        | Format.Rvar { at; _ } ->
          values.(i) <- array f children;
          set_count i at (List.length children))
    fmt.Format.fields;
  Value.Struct { names; values }

(** [decode_value fmt text] parses an XML message back into a record. *)
let decode_value (fmt : Format.t) (text : string) : Value.t =
  let el =
    try Omf_xml.Parse.element text with Omf_xml.Parse.Error _ -> bad Bad_tag
  in
  if not (String.equal el.Omf_xml.Doc.tag fmt.Format.name) then bad Bad_tag;
  record_of_element fmt el

(** [decode fmt mem text] is the full receiver-side cost: parse the
    markup, convert ASCII back to binary, and materialise the native
    struct. Returns its address. *)
let decode (fmt : Format.t) (mem : Memory.t) (text : string) : int =
  Native.store mem fmt (decode_value fmt text)
