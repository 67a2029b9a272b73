(* The shared assertion of the malformed-input corpora: [f] must raise
   [Located.Error] on [line] (and at [col], when given) with a message
   mentioning [mentions]. *)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let expect_located ~line ?col ~mentions f =
  match f () with
  | _ -> Alcotest.failf "expected a located error mentioning %S" mentions
  | exception Compass_util.Located.Error e ->
    let where = Compass_util.Located.render e in
    Alcotest.(check int) (Printf.sprintf "line of %S" where) line e.line;
    Option.iter
      (fun col -> Alcotest.(check int) (Printf.sprintf "column of %S" where) col e.col)
      col;
    if not (contains e.msg mentions) then
      Alcotest.failf "diagnostic %S does not mention %S" e.msg mentions
