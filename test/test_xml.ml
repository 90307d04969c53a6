(** Tests for the XML substrate: parser, writer, namespaces. *)

open Omf_xml

let check = Alcotest.check
let str = Alcotest.string
let int = Alcotest.int
let bool = Alcotest.bool

let parses s = (Parse.document s).Doc.root

let rejects name s =
  match Parse.document s with
  | _ -> Alcotest.failf "%s: expected parse error for %S" name s
  | exception Parse.Error _ -> ()

(* ------------------------------------------------------------------ *)
(* Parser basics                                                        *)
(* ------------------------------------------------------------------ *)

let test_minimal () =
  let r = parses "<a/>" in
  check str "tag" "a" r.Doc.tag;
  check int "no children" 0 (List.length r.Doc.children)

let test_attributes () =
  let r = parses {|<a x="1" y='two' z="a&amp;b"/>|} in
  check str "x" "1" (Option.get (Doc.attr r "x"));
  check str "single quotes" "two" (Option.get (Doc.attr r "y"));
  check str "entity in attribute" "a&b" (Option.get (Doc.attr r "z"));
  check bool "missing attr" true (Doc.attr r "nope" = None)

let test_nesting_and_text () =
  let r = parses "<a>hello <b>world</b>!</a>" in
  check int "three children" 3 (List.length r.Doc.children);
  check str "text" "hello !" (Doc.text r);
  check str "deep text" "hello world!" (Doc.deep_text r)

let test_entities () =
  let r = parses "<a>&lt;tag&gt; &amp; &quot;q&quot; &apos;a&apos;</a>" in
  check str "predefined entities" {|<tag> & "q" 'a'|} (Doc.text r)

let test_char_references () =
  let r = parses "<a>&#65;&#x42;&#67;</a>" in
  check str "character references" "ABC" (Doc.text r);
  let r = parses "<a>&#233;</a>" in
  check str "UTF-8 encoding of reference" "\xC3\xA9" (Doc.text r)

let test_cdata () =
  let r = parses "<a><![CDATA[<not & parsed>]]></a>" in
  check str "cdata" "<not & parsed>" (Doc.text r)

let test_comments_and_pis () =
  let r = parses "<a><!-- note --><?proc do it?><b/></a>" in
  check int "children incl comment + pi" 3 (List.length r.Doc.children);
  check int "one element child" 1 (List.length (Doc.child_elements r))

let test_prolog_and_doctype () =
  let d =
    Parse.document
      {|<?xml version="1.0" encoding="UTF-8"?>
<!-- header -->
<!DOCTYPE a [ <!ELEMENT a ANY> ]>
<a/>|}
  in
  check str "version" "1.0" (List.assoc "version" d.Doc.decl);
  check str "root" "a" d.Doc.root.Doc.tag

let test_deeply_nested () =
  let n = 500 in
  let s =
    String.concat ""
      (List.init n (fun i -> Printf.sprintf "<e%d>" i))
    ^ "x"
    ^ String.concat ""
        (List.init n (fun i -> Printf.sprintf "</e%d>" (n - 1 - i)))
  in
  let r = parses s in
  check str "deep nesting survives" "e0" r.Doc.tag

let test_malformed () =
  rejects "mismatched tags" "<a><b></a></b>";
  rejects "unterminated" "<a><b>";
  rejects "two roots" "<a/><b/>";
  rejects "duplicate attrs" {|<a x="1" x="2"/>|};
  rejects "bad entity" "<a>&nosuch;</a>";
  rejects "stray text" "text<a/>";
  rejects "unterminated comment" "<a><!-- oops</a>";
  rejects "lt in attribute" {|<a x="<"/>|};
  rejects "empty" "";
  rejects "cdata end in text" "<a>]]></a>"

let test_error_positions () =
  match Parse.document "<a>\n  <b>\n</a>" with
  | _ -> Alcotest.fail "expected error"
  | exception Parse.Error { line; _ } ->
    check bool "error on line 3" true (line = 3)

(* A corpus of tricky-but-valid and subtly-invalid documents. *)
let accept_corpus =
  [ ("self-closing with space", "<a />")
  ; ("attribute with every quote style", {|<a x="it's" y='say "hi"'/>|})
  ; ("numeric tag suffix", "<a1b2/>")
  ; ("underscore and dot names", "<_x.y z.w=\"1\"/>")
  ; ("whitespace soup", "<a  \n\t x = \"1\"  ><b\n/></a  >")
  ; ("cdata containing markup-like text", "<a><![CDATA[</a><b>]]></a>")
  ; ("cdata with lone brackets", "<a><![CDATA[ ]] > ] ]]></a>")
  ; ("comment with dashes inside words", "<a><!-- a-b c-d --></a>")
  ; ("pi before and after children", "<a><?x?>text<?y z?></a>")
  ; ("entity at boundaries", "<a>&amp;middle&amp;</a>")
  ; ("char ref max ascii", "<a>&#126;</a>")
  ; ("nested same-name elements", "<a><a><a/></a></a>")
  ; ("empty attribute value", {|<a x=""/>|})
  ; ("utf8 text passthrough", "<a>caf\xc3\xa9</a>")
  ; ("crlf line endings", "<a>line1\r\nline2</a>")
  ; ("deep attribute count", "<a " ^ String.concat " " (List.init 30 (fun i -> Printf.sprintf "k%d=\"%d\"" i i)) ^ "/>")
  ]

let reject_corpus =
  [ ("unclosed attribute", "<a x=\"1/>")
  ; ("attribute without value", "<a x/>")
  ; ("attribute without quotes", "<a x=1/>")
  ; ("space before tag name", "< a/>")
  ; ("end tag with attributes", "<a></a x=\"1\">")
  ; ("double dash in comment", "<a><!-- a -- b --></a>")
  ; ("tag starting with digit", "<1a/>")
  ; ("bare ampersand", "<a>a & b</a>")
  ; ("unterminated entity", "<a>&amp</a>")
  ; ("char ref overflow", "<a>&#1114112;</a>")
  ; ("char ref zero", "<a>&#0;</a>")
  ; ("markup decl in content", "<a><!ELEMENT a ANY></a>")
  ; ("eof inside cdata", "<a><![CDATA[x")
  ; ("eof inside pi", "<a><?x y")
  ]

let test_accept_corpus () =
  List.iter
    (fun (name, text) ->
      match Parse.document text with
      | _ -> ()
      | exception Parse.Error { message; _ } ->
        Alcotest.failf "%s: should parse, got %s" name message)
    accept_corpus

let test_reject_corpus () =
  List.iter (fun (name, text) -> rejects name text) reject_corpus

let test_corpus_roundtrips () =
  (* everything accepted must also survive write/parse *)
  List.iter
    (fun (name, text) ->
      let e = parses text in
      let e2 = parses (Write.element_to_string e) in
      if not (Doc.equal_modulo_comments e e2) then
        Alcotest.failf "%s: corpus round-trip failed" name)
    accept_corpus

(* ------------------------------------------------------------------ *)
(* Writer round-trips                                                   *)
(* ------------------------------------------------------------------ *)

let roundtrip s =
  let e = parses s in
  let e' = parses (Write.element_to_string e) in
  check bool ("round-trip: " ^ s) true (Doc.equal_modulo_comments e e')

let test_write_roundtrips () =
  List.iter roundtrip
    [ "<a/>"
    ; {|<a x="1 &amp; 2"><b>text &lt;here&gt;</b><c/></a>|}
    ; "<a>mixed <b>content</b> tail</a>"
    ; {|<r><k v="&quot;"/></r>|} ]

let test_escaping () =
  let e =
    Doc.element
      ~attrs:[ ("q", "a\"b<c>&d\n") ]
      ~children:[ Doc.Text "x<y>&z" ]
      "t"
  in
  let s = Write.element_to_string e in
  let e' = parses s in
  (* the newline survives because the writer emits it as &#10;, and
     character references are exempt from attribute-value normalisation *)
  check str "attr escaped and restored" "a\"b<c>&d\n" (Option.get (Doc.attr e' "q"));
  check str "text escaped and restored" "x<y>&z" (Doc.text e')

(* property: generated trees survive write/parse *)
let gen_tree : Doc.element QCheck.Gen.t =
  let open QCheck.Gen in
  let name = map (fun s -> "e" ^ s) (string_size ~gen:(char_range 'a' 'z') (int_range 1 5)) in
  let text = string_size ~gen:(char_range ' ' '~') (int_range 1 12) in
  let rec tree depth =
    let* tag = name in
    let* attrs =
      list_size (int_range 0 3)
        (pair (map (fun s -> "a" ^ s) (string_size ~gen:(char_range 'a' 'z') (int_range 1 4))) text)
    in
    let attrs =
      (* dedupe attribute names *)
      List.fold_left
        (fun acc (k, v) -> if List.mem_assoc k acc then acc else acc @ [ (k, v) ])
        [] attrs
    in
    let* children =
      if depth = 0 then return []
      else
        list_size (int_range 0 3)
          (frequency
             [ (2, map (fun t -> Doc.Text t) text)
             ; (1, map (fun e -> Doc.Element e) (tree (depth - 1))) ])
    in
    return (Doc.element ~attrs ~children tag)
  in
  tree 3

let prop_write_parse_roundtrip =
  QCheck.Test.make ~name:"write/parse round-trip (random trees)" ~count:300
    (QCheck.make gen_tree)
    (fun e ->
      let e' = Parse.element (Write.element_to_string e) in
      (* adjacent text nodes may merge on re-parse; compare rendered forms *)
      String.equal
        (Write.element_to_string e')
        (Write.element_to_string (Parse.element (Write.element_to_string e'))))

(* ------------------------------------------------------------------ *)
(* Namespaces                                                           *)
(* ------------------------------------------------------------------ *)

let test_namespace_resolution () =
  let e =
    parses
      {|<x:root xmlns:x="http://example.org/x" xmlns="http://example.org/default">
          <x:child/>
          <plain/>
        </x:root>|}
  in
  let env = Ns.extend Ns.empty e in
  check bool "prefixed root" true
    (Ns.resolve env e.Doc.tag = Some ("http://example.org/x", "root"));
  let children = Doc.child_elements e in
  let x_child = List.nth children 0 and plain = List.nth children 1 in
  check bool "prefixed child" true
    (Ns.resolve env x_child.Doc.tag = Some ("http://example.org/x", "child"));
  check bool "default namespace applies to unprefixed elements" true
    (Ns.resolve env plain.Doc.tag = Some ("http://example.org/default", "plain"))

let test_namespace_shadowing () =
  let e =
    parses
      {|<a xmlns:p="http://one"><b xmlns:p="http://two"><p:c/></b></a>|}
  in
  let env = Ns.extend Ns.empty e in
  let b = List.hd (Doc.child_elements e) in
  let env_b = Ns.extend env b in
  let c = List.hd (Doc.child_elements b) in
  check bool "inner binding wins" true
    (Ns.resolve env_b c.Doc.tag = Some ("http://two", "c"));
  (* and the outer environment still sees the outer binding *)
  check bool "outer env unaffected" true
    (match Ns.resolve env "p:x" with
    | Some ("http://one", "x") -> true
    | _ -> false)

let test_unbound_prefix () =
  let e = parses "<q:a/>" in
  let env = Ns.extend Ns.empty e in
  check bool "unbound prefix resolves to None" true
    (Ns.resolve env "q:a" = None)

(* ------------------------------------------------------------------ *)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "xml"
    [ ( "parse",
        [ Alcotest.test_case "minimal" `Quick test_minimal
        ; Alcotest.test_case "attributes" `Quick test_attributes
        ; Alcotest.test_case "nesting and text" `Quick test_nesting_and_text
        ; Alcotest.test_case "entities" `Quick test_entities
        ; Alcotest.test_case "character references" `Quick test_char_references
        ; Alcotest.test_case "CDATA" `Quick test_cdata
        ; Alcotest.test_case "comments and PIs" `Quick test_comments_and_pis
        ; Alcotest.test_case "prolog and DOCTYPE" `Quick test_prolog_and_doctype
        ; Alcotest.test_case "deep nesting" `Quick test_deeply_nested
        ; Alcotest.test_case "malformed documents rejected" `Quick test_malformed
        ; Alcotest.test_case "error positions" `Quick test_error_positions
        ; Alcotest.test_case "acceptance corpus" `Quick test_accept_corpus
        ; Alcotest.test_case "rejection corpus" `Quick test_reject_corpus
        ; Alcotest.test_case "corpus round-trips" `Quick test_corpus_roundtrips ] )
    ; ( "write",
        [ Alcotest.test_case "round-trips" `Quick test_write_roundtrips
        ; Alcotest.test_case "escaping" `Quick test_escaping ]
        @ qsuite [ prop_write_parse_roundtrip ] )
    ; ( "namespaces",
        [ Alcotest.test_case "resolution" `Quick test_namespace_resolution
        ; Alcotest.test_case "shadowing" `Quick test_namespace_shadowing
        ; Alcotest.test_case "unbound prefix" `Quick test_unbound_prefix ] ) ]
