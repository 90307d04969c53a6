(** XML serialisation: compact (canonical-ish, round-trip safe) and
    indented pretty-printing for human-facing output. *)

let escape_text s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '&' -> Buffer.add_string b "&amp;"
      | '<' -> Buffer.add_string b "&lt;"
      | '>' -> Buffer.add_string b "&gt;"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let escape_attr s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '&' -> Buffer.add_string b "&amp;"
      | '<' -> Buffer.add_string b "&lt;"
      | '"' -> Buffer.add_string b "&quot;"
      | '\n' -> Buffer.add_string b "&#10;"
      | '\t' -> Buffer.add_string b "&#9;"
      | '\r' -> Buffer.add_string b "&#13;"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let add_attrs b attrs =
  List.iter
    (fun (k, v) ->
      Buffer.add_char b ' ';
      Buffer.add_string b k;
      Buffer.add_string b "=\"";
      Buffer.add_string b (escape_attr v);
      Buffer.add_char b '"')
    attrs

let rec add_node_compact b : Doc.node -> unit = function
  | Doc.Text s -> Buffer.add_string b (escape_text s)
  | Doc.Cdata s ->
    Buffer.add_string b "<![CDATA[";
    Buffer.add_string b s;
    Buffer.add_string b "]]>"
  | Doc.Comment s ->
    Buffer.add_string b "<!--";
    Buffer.add_string b s;
    Buffer.add_string b "-->"
  | Doc.Pi (target, content) ->
    Buffer.add_string b "<?";
    Buffer.add_string b target;
    if content <> "" then begin
      Buffer.add_char b ' ';
      Buffer.add_string b content
    end;
    Buffer.add_string b "?>"
  | Doc.Element e -> add_element_compact b e

and add_element_compact b (e : Doc.element) =
  Buffer.add_char b '<';
  Buffer.add_string b e.tag;
  add_attrs b e.attrs;
  match e.children with
  | [] -> Buffer.add_string b "/>"
  | children ->
    Buffer.add_char b '>';
    List.iter (add_node_compact b) children;
    Buffer.add_string b "</";
    Buffer.add_string b e.tag;
    Buffer.add_char b '>'

(** Single-line serialisation with no inserted whitespace: parsing the
    result yields a tree equal (modulo comments) to the input. *)
let element_to_string (e : Doc.element) : string =
  let b = Buffer.create 256 in
  add_element_compact b e;
  Buffer.contents b

let document_to_string (d : Doc.t) : string =
  let b = Buffer.create 256 in
  Buffer.add_string b "<?xml";
  let attrs = if d.Doc.decl = [] then [ ("version", "1.0") ] else d.Doc.decl in
  add_attrs b attrs;
  Buffer.add_string b "?>\n";
  add_element_compact b d.Doc.root;
  Buffer.add_char b '\n';
  Buffer.contents b
