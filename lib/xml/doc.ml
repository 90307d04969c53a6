(** XML document trees and accessors.

    Tag and attribute names are kept as the raw qualified names
    ("xsd:element"); namespace resolution is layered on by {!Ns}. *)

type node =
  | Element of element
  | Text of string
  | Cdata of string
  | Comment of string
  | Pi of string * string  (** target, content *)

and element = {
  tag : string;
  attrs : (string * string) list;  (** in document order, names unique *)
  children : node list;
}

type t = {
  decl : (string * string) list;
      (** pseudo-attributes of the [<?xml …?>] declaration, if present *)
  root : element;
}

let element ?(attrs = []) ?(children = []) tag = { tag; attrs; children }

(* ---- accessors ---- *)

let attr el name = List.assoc_opt name el.attrs

(** Child elements, in document order. *)
let child_elements el =
  List.filter_map (function Element e -> Some e | _ -> None) el.children

let find_children el tag =
  List.filter (fun e -> String.equal e.tag tag) (child_elements el)

(** Concatenated character data of the element (text and CDATA children,
    non-recursive). *)
let text el =
  String.concat ""
    (List.filter_map
       (function Text s | Cdata s -> Some s | _ -> None)
       el.children)

(** Recursive character data (all descendant text). *)
let rec deep_text el =
  String.concat ""
    (List.map
       (function
         | Text s | Cdata s -> s
         | Element e -> deep_text e
         | Comment _ | Pi _ -> "")
       el.children)

(** Split a qualified name into [(prefix, local)]; prefix is [""] when
    unqualified. *)
let split_qname qname =
  match String.index_opt qname ':' with
  | None -> ("", qname)
  | Some i ->
    (String.sub qname 0 i, String.sub qname (i + 1) (String.length qname - i - 1))

let local_name qname = snd (split_qname qname)

(** Structural equality ignoring comments and processing instructions —
    the right notion for round-trip tests. *)
let rec equal_modulo_comments (a : element) (b : element) =
  let significant = function
    | Comment _ | Pi _ -> None
    | n -> Some n
  in
  let na = List.filter_map significant a.children in
  let nb = List.filter_map significant b.children in
  String.equal a.tag b.tag
  && List.length a.attrs = List.length b.attrs
  && List.for_all
       (fun (k, v) ->
         match List.assoc_opt k b.attrs with
         | Some v' -> String.equal v v'
         | None -> false)
       a.attrs
  && List.length na = List.length nb
  && List.for_all2
       (fun x y ->
         match (x, y) with
         | Element ea, Element eb -> equal_modulo_comments ea eb
         | (Text sa | Cdata sa), (Text sb | Cdata sb) -> String.equal sa sb
         | _ -> false)
       na nb
