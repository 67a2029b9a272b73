type align =
  | Left
  | Right

type t = {
  headers : string list;
  aligns : align list;
  mutable rows : string list list; (* reverse order *)
}

let create ?(aligns = []) headers =
  let n = List.length headers in
  let padded =
    let rec pad i = function
      | a :: rest -> if i < n then a :: pad (i + 1) rest else []
      | [] -> if i < n then Left :: pad (i + 1) [] else []
    in
    pad 0 aligns
  in
  { headers; aligns = padded; rows = [] }

let add_row t cells =
  let n = List.length t.headers in
  let k = List.length cells in
  if k > n then invalid_arg "Table.add_row: too many cells";
  let padded = cells @ List.init (n - k) (fun _ -> "") in
  t.rows <- padded :: t.rows

let render t =
  let rows = List.rev t.rows in
  let all = t.headers :: rows in
  let ncols = List.length t.headers in
  let width c =
    List.fold_left (fun acc row -> max acc (String.length (List.nth row c))) 0 all
  in
  let widths = List.init ncols width in
  let pad align w s =
    let fill = String.make (w - String.length s) ' ' in
    match align with Left -> s ^ fill | Right -> fill ^ s
  in
  let render_row row =
    let cells =
      List.mapi (fun c cell -> pad (List.nth t.aligns c) (List.nth widths c) cell) row
    in
    String.concat " | " cells
  in
  let sep =
    String.concat "-+-" (List.map (fun w -> String.make w '-') widths)
  in
  String.concat "\n" (render_row t.headers :: sep :: List.map render_row rows)

let print t =
  print_string (render t);
  print_newline ()
