let pad ~left width s =
  let n = String.length s in
  if n >= width then s
  else begin
    let fill = String.make (width - n) ' ' in
    if left then s ^ fill else fill ^ s
  end

let table ~header rows ppf () =
  let ncols = List.length header in
  List.iteri
    (fun i row ->
      if List.length row <> ncols then
        invalid_arg
          (Printf.sprintf "Report.table: row %d has %d cells, expected %d" i
             (List.length row) ncols))
    rows;
  let widths =
    List.mapi
      (fun c h ->
        List.fold_left
          (fun acc row -> max acc (String.length (List.nth row c)))
          (String.length h) rows)
      header
  in
  let print_row cells =
    let padded =
      List.mapi
        (fun c (w, cell) -> pad ~left:(c = 0) w cell)
        (List.combine widths cells)
    in
    Format.fprintf ppf "%s@." (String.concat "  " padded)
  in
  print_row header;
  Format.fprintf ppf "%s@."
    (String.concat "  " (List.map (fun w -> String.make w '-') widths));
  List.iter print_row rows

let bar_chart ?(width = 40) ~header entries ppf () =
  Format.fprintf ppf "%s@." header;
  let maxv =
    List.fold_left (fun acc (_, v) -> Float.max acc (Float.abs v)) 0. entries
  in
  let label_width =
    List.fold_left (fun acc (l, _) -> max acc (String.length l)) 0 entries
  in
  List.iter
    (fun (label, v) ->
      let bar_len =
        if maxv <= 0. then 0
        else int_of_float (Float.round (Float.abs v /. maxv *. float_of_int width))
      in
      Format.fprintf ppf "%s  %s %.3f@."
        (pad ~left:true label_width label)
        (String.make bar_len '#') v)
    entries

let cdf_plot ?(width = 60) ?(height = 16) ~header series ppf () =
  Format.fprintf ppf "%s@." header;
  match series with
  | [] -> ()
  | _ ->
    let glyphs = [| '*'; 'o'; '+'; 'x'; '#'; '@' |] in
    let all_x = List.concat_map (fun (_, pts) -> List.map fst pts) series in
    (match all_x with
    | [] -> ()
    | x0 :: _ ->
      let xmin = List.fold_left Float.min x0 all_x in
      let xmax = List.fold_left Float.max x0 all_x in
      let xspan = if xmax > xmin then xmax -. xmin else 1. in
      let canvas = Array.make_matrix height width ' ' in
      List.iteri
        (fun si (_, pts) ->
          let glyph = glyphs.(si mod Array.length glyphs) in
          List.iter
            (fun (x, p) ->
              let col =
                int_of_float
                  (Float.round ((x -. xmin) /. xspan *. float_of_int (width - 1)))
              in
              let row =
                int_of_float
                  (Float.round ((1. -. p) *. float_of_int (height - 1)))
              in
              if row >= 0 && row < height && col >= 0 && col < width then
                canvas.(row).(col) <- glyph)
            pts)
        series;
      for r = 0 to height - 1 do
        let p = 1. -. (float_of_int r /. float_of_int (height - 1)) in
        Format.fprintf ppf "%4.2f |%s@." p (String.init width (fun c -> canvas.(r).(c)))
      done;
      Format.fprintf ppf "     +%s@." (String.make width '-');
      Format.fprintf ppf "      %-8.3g%s%8.3g@." xmin
        (String.make (max 1 (width - 16)) ' ')
        xmax;
      List.iteri
        (fun si (name, _) ->
          Format.fprintf ppf "      %c %s@." glyphs.(si mod Array.length glyphs) name)
        series)

let percent v = Printf.sprintf "%.2f%%" (100. *. v)
