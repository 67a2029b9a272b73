type state =
  | Open
  | Closed
  | Sold_out

let sell ?(discount = 0.) ?(gift = false) ?note n =
  ignore (gift, note);
  float_of_int n *. (1. -. discount)

let resell n = sell ~note:"again" n
let restock ?(hint = 0) () = if hint > 0 then Closed else Closed
let _ = resell
