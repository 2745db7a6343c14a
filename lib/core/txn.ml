type op = Read of int | Write of int

type t = { id : int; ops : op list }

let make ~id ops =
  if id < 0 then invalid_arg "Txn.make: negative id";
  if ops = [] then invalid_arg "Txn.make: empty operation list";
  { id; ops }

let size t = List.length t.ops

let distinct items =
  let seen = Hashtbl.create 8 in
  List.filter
    (fun item ->
      if Hashtbl.mem seen item then false
      else begin
        Hashtbl.add seen item ();
        true
      end)
    items

let read_items t =
  distinct (List.filter_map (function Read item -> Some item | Write _ -> None) t.ops)

let write_items t =
  distinct (List.filter_map (function Write item -> Some item | Read _ -> None) t.ops)

let items t = distinct (List.map (function Read item | Write item -> item) t.ops)

let pp_op ppf = function
  | Read item -> Format.fprintf ppf "r(%d)" item
  | Write item -> Format.fprintf ppf "w(%d)" item

let pp ppf t =
  Format.fprintf ppf "@[<h>T%d[%a]@]" t.id
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.pp_print_char ppf ' ') pp_op)
    t.ops
