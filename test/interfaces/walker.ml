(* Reads the .cmti and .cmt files dune writes and says, for every value
   an interface exports, who calls it.

   A use is a [Texp_ident]; its value description carries the
   declaration's [val_loc], so a use from another compilation unit
   points at the declaring .mli, through [open]s and local aliases
   ([module Ft = Flow_table]) alike, and a use inside the declaring
   unit points at its own .ml definition.  The .ml definitions are
   matched to the .mli declarations by name through the
   implementation's signature.  A module passed as a functor argument
   or packed as a first-class module counts as a use of every value in
   its type.  Only constructors whose shape is the same from OCaml 5.1
   to 5.2 are matched: [Texp_ident], [Texp_pack], [Tmod_apply],
   [Tsig_value], [Tsig_module], [Tsig_type], and
   [Sig_value]/[Sig_module] of the implementation's signature.  The
   knobs rule also reads an application's arguments and a record
   update's fields, each in one function of its own ([written_arg],
   [updated_labels]). *)

open Typedtree

type use = {
  user : string;  (** source file of the calling unit *)
  binding : string;  (** enclosing top-level binding in that file *)
  path : string;
      (** the path as written at the call, e.g. ["Ft.iter"]: neither an
          [open] nor an alias changes it *)
}

type unit_info = {
  source : string;  (** e.g. ["lib/inrpp/router.ml"] *)
  modname : string;  (** e.g. ["Inrpp.Router"] *)
  str : structure;
}

type export = {
  name : string;  (** e.g. ["Topology.Graph.find_link"] *)
  decl : Location.t;  (** the .mli declaration *)
  impl : string;  (** the .ml the .mli belongs to *)
  optional : string list;  (** its optional parameters, in order *)
}

type verdict =
  | Used  (** called from another unit outside test/ *)
  | Hideable  (** called only inside its own unit (outside test/) *)
  | Unused  (** no caller outside test/ *)

let key (loc : Location.t) = loc.loc_start.pos_fname, loc.loc_start.pos_cnum

(* --- finding the files ------------------------------------------ *)

let rec files_under ~suffix dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | names ->
    Array.sort compare names;
    Array.to_list names
    |> List.concat_map (fun n ->
           let p = Filename.concat dir n in
           (* an entry gone since [readdir] (a build still writing), or
              a dangling link, is absent *)
           match Sys.is_directory p with
           | exception Sys_error _ -> []
           | true -> files_under ~suffix p
           | false -> if Filename.check_suffix n suffix then [ p ] else [])

(* Byte objects only: the native directory holds no annotations. *)
let annotation_files ~suffix root dir =
  files_under ~suffix (Filename.concat root dir)
  |> List.filter (fun p ->
         Filename.basename (Filename.dirname p) = "byte")

let read path = Cmt_format.read_cmt path

(* --- exports ---------------------------------------------------- *)

(* "Inrpp__Router" -> "Inrpp.Router" *)
let unit_name modname =
  let b = Buffer.create (String.length modname) in
  let n = String.length modname in
  let i = ref 0 in
  while !i < n do
    if !i + 1 < n && modname.[!i] = '_' && modname.[!i + 1] = '_' then (
      Buffer.add_char b '.';
      i := !i + 2)
    else (
      Buffer.add_char b modname.[!i];
      incr i)
  done;
  Buffer.contents b

(* the optional parameters of a function type, in order *)
let rec optional_labels ty =
  match Types.get_desc ty with
  | Types.Tarrow (Asttypes.Optional l, _, rest, _) -> l :: optional_labels rest
  | Types.Tarrow (_, _, rest, _) -> optional_labels rest
  | _ -> []

let rec signature_exports prefix acc (sg : signature) =
  List.fold_left
    (fun acc item ->
      match item.sig_desc with
      | Tsig_value vd ->
        (prefix ^ vd.val_name.txt, vd.val_val.Types.val_loc,
         optional_labels vd.val_val.Types.val_type)
        :: acc
      | Tsig_module { md_name = { txt = Some m; _ }; md_type; _ } -> (
        match md_type.mty_desc with
        | Tmty_signature sg -> signature_exports (prefix ^ m ^ ".") acc sg
        | _ -> acc)
      | _ -> acc)
    acc sg.sig_items

(** Every value the .cmti files under [dirs] of [root] export, in
    file order. *)
let exports ~root dirs =
  List.concat_map
    (fun dir ->
      annotation_files ~suffix:".cmti" root dir
      |> List.concat_map (fun path ->
             let cmt = read path in
             match cmt.cmt_annots, cmt.cmt_sourcefile with
             | Cmt_format.Interface sg, Some mli ->
               let impl = Filename.chop_suffix mli ".mli" ^ ".ml" in
               signature_exports (unit_name cmt.cmt_modname ^ ".") [] sg
               |> List.rev_map (fun (name, decl, optional) ->
                      { name; decl; impl; optional })
             | _ -> []))
    dirs

(* --- implementations -------------------------------------------- *)

(** The implementations under [dirs] of [root]; dune's generated alias
    modules are skipped. *)
let units ~root dirs =
  List.concat_map
    (fun dir ->
      annotation_files ~suffix:".cmt" root dir
      |> List.filter_map (fun path ->
             let cmt = read path in
             match cmt.cmt_annots, cmt.cmt_sourcefile with
             | Cmt_format.Implementation str, Some source
               when Filename.check_suffix source ".ml" ->
               Some { source; modname = unit_name cmt.cmt_modname; str }
             | _ -> None))
    dirs

(* Values of a module type, with their declarations. *)
let rec type_values acc (mty : Types.module_type) =
  match mty with
  | Types.Mty_signature sg ->
    List.fold_left
      (fun acc (item : Types.signature_item) ->
        match item with
        | Sig_value (_, vd, _) -> vd.val_loc :: acc
        | Sig_module (_, _, md, _, _) -> type_values acc md.md_type
        | _ -> acc)
      acc sg
  | _ -> acc

(* Top-level (and nested-module) value definitions of an
   implementation, keyed by declaration, with their qualified name. *)
let rec definitions prefix acc (sg : Types.signature) =
  List.fold_left
    (fun acc (item : Types.signature_item) ->
      match item with
      | Sig_value (id, vd, _) -> (key vd.val_loc, prefix ^ Ident.name id) :: acc
      | Sig_module (id, _, md, _, _) -> (
        match md.md_type with
        | Types.Mty_signature sg ->
          definitions (prefix ^ Ident.name id ^ ".") acc sg
        | _ -> acc)
      | _ -> acc)
    acc sg

(** [iter_uses u f] calls [f decl use] for every value [u] refers to:
    each identifier, and each value of a module passed to a functor or
    packed. *)
let iter_uses u f =
  let binding = ref "" in
  let use path loc = f loc { user = u.source; binding = !binding; path } in
  let open Tast_iterator in
  let module_values (me : module_expr) =
    List.iter (use "") (type_values [] me.mod_type)
  in
  let expr it (e : expression) =
    (match e.exp_desc with
     | Texp_ident (_, lid, vd) ->
       use (String.concat "." (Longident.flatten lid.txt)) vd.val_loc
     | Texp_pack me -> module_values me
     | _ -> ());
    default_iterator.expr it e
  in
  let module_expr it (me : module_expr) =
    (match me.mod_desc with
     | Tmod_apply (_, arg, _) -> module_values arg
     | _ -> ());
    default_iterator.module_expr it me
  in
  let outer = ref [] in
  let structure_item it (si : structure_item) =
    match si.str_desc with
    | Tstr_value (_, vbs) ->
      let saved = !binding in
      let names = List.map Ident.name (let_bound_idents vbs) in
      binding :=
        String.concat "." (List.rev (String.concat "," names :: !outer));
      default_iterator.structure_item it si;
      binding := saved
    | Tstr_module { mb_name = { txt = Some m; _ }; _ } ->
      outer := m :: !outer;
      default_iterator.structure_item it si;
      outer := List.tl !outer
    | _ -> default_iterator.structure_item it si
  in
  let it = { default_iterator with expr; module_expr; structure_item } in
  it.structure it u.str

(* --- the export rule -------------------------------------------- *)

type report = {
  export : export;
  verdict : verdict;
  test_users : string list;  (** test files that call it, sorted *)
}

(* Exports by declaration: the .mli's, and each export's .ml
   definition, so that uses inside its own unit find it too. *)
let decl_index ~exports ~programs =
  let by_decl = Hashtbl.create 1024 in
  List.iter (fun e -> Hashtbl.replace by_decl (key e.decl) e) exports;
  let by_name = Hashtbl.create 1024 in
  List.iter (fun e -> Hashtbl.replace by_name e.name e) exports;
  List.iter
    (fun u ->
      definitions (u.modname ^ ".") [] u.str.str_type
      |> List.iter (fun (k, name) ->
             match Hashtbl.find_opt by_name name with
             | Some e when e.impl = u.source -> Hashtbl.replace by_decl k e
             | _ -> ()))
    programs;
  by_decl

(** [classify ~exports ~programs ~tests] gives each export its
    verdict, in the order of [exports].  Calls from [tests] count only
    in [test_users]. *)
let classify ~exports ~programs ~tests =
  let by_decl = decl_index ~exports ~programs in
  let outside = Hashtbl.create 1024
  and own = Hashtbl.create 1024
  and tested = Hashtbl.create 1024 in
  let note ~test u =
    iter_uses u (fun loc use ->
        match Hashtbl.find_opt by_decl (key loc) with
        | None -> ()
        | Some e ->
          if test then
            let users = Option.value ~default:[] (Hashtbl.find_opt tested e.name) in
            Hashtbl.replace tested e.name (use.user :: users)
          else if use.user = e.impl then Hashtbl.replace own e.name ()
          else Hashtbl.replace outside e.name ())
  in
  List.iter (note ~test:false) programs;
  List.iter (note ~test:true) tests;
  List.map
    (fun e ->
      let verdict =
        if Hashtbl.mem outside e.name then Used
        else if Hashtbl.mem own e.name then Hideable
        else Unused
      in
      let test_users =
        List.sort_uniq compare
          (Option.value ~default:[] (Hashtbl.find_opt tested e.name))
      in
      { export = e; verdict; test_users })
    exports

(* --- hash-order sites ------------------------------------------- *)

type site = { file : string; in_binding : string; called : string }

let stdlib_walks = [ "iter"; "fold"; "to_seq"; "to_seq_keys"; "to_seq_values" ]

let last_component path =
  match String.rindex_opt path '.' with
  | Some i -> String.sub path (i + 1) (String.length path - i - 1)
  | None -> path

(** Walks whose order is a hash order: the stdlib [Hashtbl]'s
    [iter]/[fold]/[to_seq*] (functor instances included: their
    declarations are in hashtbl.mli) and [Flow_table.iter]/[iter_bp],
    whose order mirrors the stdlib's.  One entry per call site,
    sorted. *)
let hash_order_sites units =
  let sites = ref [] in
  List.iter
    (fun u ->
      iter_uses u (fun (loc : Location.t) use ->
          let decl = Filename.basename loc.loc_start.pos_fname in
          let walk = last_component use.path in
          if
            (decl = "hashtbl.mli" && List.mem walk stdlib_walks)
            || (decl = "flow_table.mli" && (walk = "iter" || walk = "iter_bp"))
          then
            sites :=
              { file = use.user; in_binding = use.binding; called = use.path }
              :: !sites))
    units;
  List.sort compare !sites

(* --- knobs ------------------------------------------------------ *)

(* The two matches on Typedtree constructors whose shape is not the
   same in every supported compiler.  An application's argument is an
   [expression option] in OCaml 5.1 and [Arg of expression | Omitted of
   unit] from 5.2; both keep a written argument in field 0 of a block
   with tag 0, and [written_arg] reads that layout so that this file
   builds under either.  An optional argument the call leaves out is
   filled in by the type checker with a [None] at [Location.none]: not
   written either. *)
let written_arg (arg : Obj.t) : expression option =
  if Obj.is_block arg && Obj.tag arg = 0 then
    let e : expression = Obj.obj (Obj.field arg 0) in
    if e.exp_loc = Location.none then None else Some e
  else None

(* the labels a [{ e with f = ... }] update sets; [] for any other
   expression *)
let updated_labels (e : expression) =
  match e.exp_desc with
  | Texp_record { fields; extended_expression = Some _; _ } ->
    Array.to_list fields
    |> List.filter_map (fun ((l : Types.label_description), def) ->
           match def with Overridden _ -> Some l | Kept _ -> None)
  | _ -> []

(* A config record: a record type whose signature also exports a
   default of that type, a constant named [default] or [default_*]. *)
type record = {
  record : string;  (** e.g. ["Inrpp.Config.t"] *)
  owner : string * string;  (** its source without extension, type name *)
  fields : string list;
}

let rec signature_records prefix file acc (sg : signature) =
  let constant ty =
    match Types.get_desc ty with
    | Types.Tconstr (Path.Pident id, [], _) -> Some (Ident.name id)
    | _ -> None
  in
  let constants =
    List.filter_map
      (fun item ->
        match item.sig_desc with
        | Tsig_value vd
          when vd.val_name.txt = "default"
               || String.starts_with ~prefix:"default_" vd.val_name.txt ->
          constant vd.val_val.Types.val_type
        | _ -> None)
      sg.sig_items
  in
  List.fold_left
    (fun acc item ->
      match item.sig_desc with
      | Tsig_type (_, decls) ->
        List.fold_left
          (fun acc d ->
            match d.typ_kind with
            | Ttype_record lds when List.mem d.typ_name.txt constants ->
              {
                record = prefix ^ d.typ_name.txt;
                owner = file, d.typ_name.txt;
                fields = List.map (fun ld -> ld.ld_name.txt) lds;
              }
              :: acc
            | _ -> acc)
          acc decls
      | Tsig_module { md_name = { txt = Some m; _ }; md_type; _ } -> (
        match md_type.mty_desc with
        | Tmty_signature sg -> signature_records (prefix ^ m ^ ".") file acc sg
        | _ -> acc)
      | _ -> acc)
    acc sg.sig_items

(** The config records the .cmti files under [dirs] of [root]
    declare, in file order. *)
let records ~root dirs =
  List.concat_map
    (fun dir ->
      annotation_files ~suffix:".cmti" root dir
      |> List.concat_map (fun path ->
             let cmt = read path in
             match cmt.cmt_annots, cmt.cmt_sourcefile with
             | Cmt_format.Interface sg, Some mli ->
               signature_records (unit_name cmt.cmt_modname ^ ".")
                 (Filename.chop_suffix mli ".mli") [] sg
               |> List.rev
             | _ -> []))
    dirs

(* [iter_settings u ~param ~value ~field] calls [param decl label] for
   each optional argument [u] writes at a call, [value decl] for each
   value it refers to other than at the head of an application, and
   [field owner label] for each field it sets in a [with] update. *)
let iter_settings u ~param ~value ~field =
  let open Tast_iterator in
  let head = ref None in
  let expr it (e : expression) =
    (match e.exp_desc with
     | Texp_apply (({ exp_desc = Texp_ident (_, _, vd); _ } as f), args) ->
       head := Some f;
       List.iter
         (fun (label, arg) ->
           match label, written_arg (Obj.repr arg) with
           | Asttypes.Optional l, Some _ -> param vd.Types.val_loc l
           | _ -> ())
         args
     | Texp_ident (_, _, vd) -> (
       match !head with
       | Some f when f == e -> head := None
       | _ -> value vd.Types.val_loc)
     | _ -> ());
    List.iter
      (fun (l : Types.label_description) ->
        match Types.get_desc l.lbl_res with
        | Types.Tconstr (p, _, _) ->
          field
            (Filename.remove_extension l.lbl_loc.loc_start.pos_fname, Path.last p)
            l.lbl_name
        | _ -> ())
      (updated_labels e);
    default_iterator.expr it e
  in
  let it = { default_iterator with expr } in
  it.structure it u.str

type knob = {
  knob : string;
      (** ["Sim.Engine.run ?max_events"] or ["Inrpp.Config.t.pitless"] *)
  set : bool;  (** set by a unit outside test/ *)
  test_setters : string list;  (** test files that set it, sorted *)
}

(** [knobs ~exports ~records ~programs ~tests]: every optional
    parameter of [exports] and every field of [records], and whether a
    program sets it.  Passing a function other than by calling it
    passes all its optional parameters.  Settings in [tests] count only
    in [test_setters]. *)
let knobs ~exports ~records ~programs ~tests =
  let by_decl = decl_index ~exports ~programs in
  let set = Hashtbl.create 256 and tested = Hashtbl.create 256 in
  let note ~test u =
    let mark k =
      if test then
        let users = Option.value ~default:[] (Hashtbl.find_opt tested k) in
        Hashtbl.replace tested k (u.source :: users)
      else Hashtbl.replace set k ()
    in
    let export loc f = Option.iter f (Hashtbl.find_opt by_decl (key loc)) in
    iter_settings u
      ~param:(fun loc l -> export loc (fun e -> mark (e.name ^ " ?" ^ l)))
      ~value:(fun loc ->
        export loc (fun e -> List.iter (fun l -> mark (e.name ^ " ?" ^ l)) e.optional))
      ~field:(fun owner l ->
        List.iter
          (fun r -> if r.owner = owner then mark (r.record ^ "." ^ l))
          records)
  in
  List.iter (note ~test:false) programs;
  List.iter (note ~test:true) tests;
  List.concat_map (fun e -> List.map (fun l -> e.name ^ " ?" ^ l) e.optional) exports
  @ List.concat_map (fun r -> List.map (fun f -> r.record ^ "." ^ f) r.fields) records
  |> List.map (fun knob ->
         {
           knob;
           set = Hashtbl.mem set knob;
           test_setters =
             List.sort_uniq compare
               (Option.value ~default:[] (Hashtbl.find_opt tested knob));
         })
