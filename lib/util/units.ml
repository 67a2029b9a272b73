let mib = 1024. *. 1024.

(* Pick the largest prefix whose scaled mantissa is >= 1. *)
let scaled prefixes base value =
  let rec choose = function
    | [] -> invalid_arg "Units.scaled: no prefixes"
    | [ (p, scale) ] -> (value /. scale, p)
    | (p, scale) :: rest -> if abs_float value >= scale then (value /. scale, p) else choose rest
  in
  choose (List.map (fun (p, e) -> (p, base ** e)) prefixes)

let pp_with prefixes base unit ppf value =
  if value = 0. then Format.fprintf ppf "0 %s" unit
  else
    let mantissa, prefix = scaled prefixes base value in
    Format.fprintf ppf "%.3g %s%s" mantissa prefix unit

let byte_prefixes = [ ("G", 3.); ("M", 2.); ("K", 1.); ("", 0.) ]
let si_down = [ ("", 0.); ("m", -1.); ("u", -2.); ("n", -3.); ("p", -4.) ]

let pp_rate ppf r = Format.fprintf ppf "%.4g inf/s" r
let bytes_to_string b = Format.asprintf "%a" (pp_with byte_prefixes 1024. "B") b
let time_to_string s = Format.asprintf "%a" (pp_with si_down 1000. "s") s
let energy_to_string j = Format.asprintf "%a" (pp_with si_down 1000. "J") j
