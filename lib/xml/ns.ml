(** XML namespace resolution (Namespaces in XML, the convention the paper
    relies on to reference XML Schema datatypes).

    An environment maps prefixes to namespace URIs; [xmlns] / [xmlns:p]
    attributes extend it lexically as the tree is walked. *)

type env = (string * string) list
(** association list prefix → URI; [""] is the default namespace prefix *)

let xml_uri = "http://www.w3.org/XML/1998/namespace"

let empty : env = [ ("xml", xml_uri) ]

(** [extend env el] is [env] extended with the namespace declarations that
    appear on [el]. *)
let extend (env : env) (el : Doc.element) : env =
  List.fold_left
    (fun env (k, v) ->
      if String.equal k "xmlns" then ("", v) :: env
      else
        match Doc.split_qname k with
        | "xmlns", prefix -> (prefix, v) :: env
        | _ -> env)
    env el.Doc.attrs

(** [resolve env qname] expands [qname] to [(uri, local)]. Unbound
    prefixes resolve to [None]; an unqualified name resolves to the
    default namespace (which may be [""]). *)
let resolve (env : env) (qname : string) : (string * string) option =
  let prefix, local = Doc.split_qname qname in
  match List.assoc_opt prefix env with
  | Some uri -> Some (uri, local)
  | None -> if String.equal prefix "" then Some ("", local) else None
