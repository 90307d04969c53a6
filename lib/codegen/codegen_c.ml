(** C code generation: from format declarations back to the
    language-level representations of the paper's Appendix A — a struct
    typedef (Figure 4) and the compiled-in IOField metadata rows
    (Figure 5). This realises part of the paper's stated future work
    ("generation of language-level message object representations"), and
    gives deployments the fault-tolerant compiled-in fallback for free:
    generate once from the authoritative schema, link it in, and remote
    discovery failures degrade gracefully. *)

open Omf_machine
open Omf_pbio

let c_base_type = function
  | Ftype.Int_t Abi.Char -> "char"
  | Ftype.Int_t Abi.Uchar -> "unsigned char"
  | Ftype.Int_t Abi.Short -> "short"
  | Ftype.Int_t Abi.Ushort -> "unsigned short"
  | Ftype.Int_t Abi.Int -> "int"
  | Ftype.Int_t Abi.Uint -> "unsigned int"
  | Ftype.Int_t Abi.Long -> "long"
  | Ftype.Int_t Abi.Ulong -> "unsigned long"
  | Ftype.Int_t Abi.Longlong -> "long long"
  | Ftype.Int_t Abi.Ulonglong -> "unsigned long long"
  | Ftype.Int_t (Abi.Float | Abi.Double | Abi.Pointer) -> "long"
  | Ftype.Float_t Abi.Float -> "float"
  | Ftype.Float_t _ -> "double"
  | Ftype.Char_t -> "char"
  | Ftype.String_t -> "char*"
  | Ftype.Named_t n -> n

(** One struct member line for a field. *)
let member (f : Ftype.field) : string =
  let base = c_base_type f.Ftype.f_elem in
  match f.Ftype.f_dim with
  | Ftype.Scalar -> Printf.sprintf "    %s %s;" base f.Ftype.f_name
  | Ftype.Fixed n -> Printf.sprintf "    %s %s[%d];" base f.Ftype.f_name n
  | Ftype.Var _ -> Printf.sprintf "    %s* %s;" base f.Ftype.f_name

(** [struct_def decl] renders the typedef (compare Figure 4). *)
let struct_def (decl : Ftype.t) : string =
  let b = Buffer.create 256 in
  Buffer.add_string b (Printf.sprintf "typedef struct %s_s\n{\n" decl.Ftype.name);
  List.iter
    (fun f ->
      Buffer.add_string b (member f);
      Buffer.add_char b '\n')
    decl.Ftype.fields;
  Buffer.add_string b (Printf.sprintf "} %s;\n" decl.Ftype.name);
  Buffer.contents b

(* sizeof expression for the IOField size column: sizeof(char* ) for
   strings, element sizeof otherwise, exactly as Figures 5/8/11 *)
let sizeof_expr (f : Ftype.field) : string =
  match f.Ftype.f_elem with
  | Ftype.String_t -> "sizeof (char*)"
  | Ftype.Named_t n -> Printf.sprintf "sizeof (%s)" n
  | e -> Printf.sprintf "sizeof (%s)" (c_base_type e)

(** [io_fields decl] renders the IOField metadata array (Figure 5). *)
let io_fields (decl : Ftype.t) : string =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "IOField %sFields[] =\n{\n" decl.Ftype.name);
  List.iter
    (fun (f : Ftype.field) ->
      Buffer.add_string b
        (Printf.sprintf "    { %S, %S, %s, IOOffset (%sPtr, %s) },\n"
           f.Ftype.f_name
           (Ftype.to_type_string (f.Ftype.f_elem, f.Ftype.f_dim))
           (sizeof_expr f) decl.Ftype.name f.Ftype.f_name))
    decl.Ftype.fields;
  Buffer.add_string b "    { NULL, NULL, 0, 0 }\n};\n";
  Buffer.contents b

(** [header decls] is a complete, self-contained C header for a set of
    declarations (dependency order is the caller's, as in a Catalog). *)
let header (decls : Ftype.t list) : string =
  let guard = "OMF_GENERATED_H" in
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf
       "/* Generated by xml2wire codegen — do not edit.\n\
       \ * Structures and PBIO metadata for %s.\n */\n\
        #ifndef %s\n\
        #define %s\n\n"
       (String.concat ", " (List.map (fun d -> d.Ftype.name) decls))
       guard guard);
  List.iter
    (fun decl ->
      Buffer.add_string b (struct_def decl);
      Buffer.add_string b
        (Printf.sprintf "typedef %s* %sPtr;\n\n" decl.Ftype.name decl.Ftype.name);
      Buffer.add_string b (io_fields decl);
      Buffer.add_char b '\n')
    decls;
  Buffer.add_string b (Printf.sprintf "#endif /* %s */\n" guard);
  Buffer.contents b
