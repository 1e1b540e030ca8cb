let gigabytes x = 8e9 *. x
let gbps x = 1e9 *. x

let transmission_time ~bits ~rate =
  if rate <= 0. then invalid_arg "Units.transmission_time: rate <= 0";
  bits /. rate

let holding_time ~cache_bits ~rate = transmission_time ~bits:cache_bits ~rate

let pp_scaled ppf value unit_names factor =
  (* unit_names from smallest to largest, each [factor] apart *)
  let rec scale v = function
    | [ last ] -> (v, last)
    | name :: rest -> if Float.abs v < factor then (v, name) else scale (v /. factor) rest
    | [] -> (v, "?")
  in
  let v, name = scale value unit_names in
  Format.fprintf ppf "%.4g %s" v name

let pp_rate ppf r = pp_scaled ppf r [ "bps"; "kbps"; "Mbps"; "Gbps"; "Tbps" ] 1e3

let pp_size ppf bits =
  pp_scaled ppf (bits /. 8.) [ "B"; "kB"; "MB"; "GB"; "TB" ] 1e3

let pp_time ppf t =
  if t = 0. then Format.pp_print_string ppf "0 s"
  else if Float.abs t >= 1. then Format.fprintf ppf "%.4g s" t
  else if Float.abs t >= 1e-3 then Format.fprintf ppf "%.4g ms" (t *. 1e3)
  else if Float.abs t >= 1e-6 then Format.fprintf ppf "%.4g us" (t *. 1e6)
  else Format.fprintf ppf "%.4g ns" (t *. 1e9)
