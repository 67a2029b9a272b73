let () =
  let price = Shop.sell ~discount:0.1 3 in
  let state = if price > 1. then Shop.Open else Shop.restock () in
  match state with
  | Shop.Sold_out -> print_endline "sold out"
  | Shop.Open | Shop.Closed -> print_endline "open"
