let render ~headers rows =
  let ncols = List.length headers in
  List.iteri
    (fun i row ->
      if List.length row <> ncols then
        invalid_arg (Printf.sprintf "Table.render: row %d has wrong arity" i))
    rows;
  let all = headers :: rows in
  let widths = Array.make ncols 0 in
  List.iter
    (List.iteri (fun c cell ->
         widths.(c) <- Int.max widths.(c) (String.length cell)))
    all;
  let buf = Buffer.create 1024 in
  let emit_row row =
    List.iteri
      (fun c cell ->
        if c > 0 then Buffer.add_string buf "  ";
        Buffer.add_string buf cell;
        if c < ncols - 1 then
          Buffer.add_string buf (String.make (widths.(c) - String.length cell) ' '))
      row;
    Buffer.add_char buf '\n'
  in
  emit_row headers;
  let rule = List.init ncols (fun c -> String.make widths.(c) '-') in
  emit_row rule;
  List.iter emit_row rows;
  Buffer.contents buf

let print ~headers rows = print_string (render ~headers rows)

let print_counts ~headers pairs =
  print ~headers (List.map (fun (k, n) -> [ k; string_of_int n ]) pairs)

let fmt_factor x = Printf.sprintf "%.2fx" x

let fmt_seconds s = Printf.sprintf "%.2fs" s
