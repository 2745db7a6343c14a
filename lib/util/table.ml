type align = Left | Right

type t = {
  title : string option;
  headers : string list;
  aligns : align list;
  mutable rows : string list list;  (* reversed *)
}

let create ?title columns =
  if columns = [] then invalid_arg "Table.create: no columns";
  { title; headers = List.map fst columns; aligns = List.map snd columns; rows = [] }

let add_row t cells =
  if List.length cells <> List.length t.headers then
    invalid_arg "Table.add_row: wrong number of cells";
  t.rows <- cells :: t.rows

let pad align width s =
  let n = String.length s in
  if n >= width then s
  else
    let fill = String.make (width - n) ' ' in
    match align with Left -> s ^ fill | Right -> fill ^ s

let render t =
  let rows = List.rev t.rows in
  let widths =
    List.fold_left
      (fun widths cells -> List.map2 (fun w c -> max w (String.length c)) widths cells)
      (List.map String.length t.headers)
      rows
  in
  let buffer = Buffer.create 256 in
  let total_width = List.fold_left ( + ) 0 widths + (3 * (List.length widths - 1)) in
  (match t.title with
  | Some title ->
    Buffer.add_string buffer title;
    Buffer.add_char buffer '\n';
    Buffer.add_string buffer (String.make (max total_width (String.length title)) '=');
    Buffer.add_char buffer '\n'
  | None -> ());
  let render_cells cells =
    let padded = List.map2 (fun (a, w) c -> pad a w c) (List.combine t.aligns widths) cells in
    Buffer.add_string buffer (String.concat " | " padded);
    Buffer.add_char buffer '\n'
  in
  render_cells t.headers;
  Buffer.add_string buffer
    (String.concat "-+-" (List.map (fun w -> String.make w '-') widths));
  Buffer.add_char buffer '\n';
  List.iter render_cells rows;
  Buffer.contents buffer

let print t = print_string (render t); print_newline ()
