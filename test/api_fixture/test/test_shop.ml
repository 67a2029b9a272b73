(* Tests are not production: neither the label nor the constructor they
   use counts. *)
let () = assert (Shop.sell ~gift:true 1 > 0. && Shop.Sold_out <> Shop.Open)
