(* Rendering tests for the report tables and figure charts. *)

module Table = Raid_util.Table
module Chart = Raid_util.Chart

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec loop i = i + nl <= hl && (String.sub haystack i nl = needle || loop (i + 1)) in
  loop 0

let test_table_basic () =
  let t = Table.create ~title:"demo" [ ("name", Table.Left); ("ms", Table.Right) ] in
  Table.add_row t [ "alpha"; "9" ];
  Table.add_row t [ "b"; "123" ];
  let rendered = Table.render t in
  Alcotest.(check bool) "title" true (contains rendered "demo");
  Alcotest.(check bool) "header" true (contains rendered "name");
  (* Right-aligned numbers share the units column. *)
  Alcotest.(check bool) "right aligned" true (contains rendered "  9");
  Alcotest.(check bool) "left aligned" true (contains rendered "alpha");
  Alcotest.(check bool) "separator" true (contains rendered "-+-")

let test_table_validation () =
  Alcotest.check_raises "no columns" (Invalid_argument "Table.create: no columns") (fun () ->
      ignore (Table.create []));
  let t = Table.create [ ("a", Table.Left); ("b", Table.Left) ] in
  Alcotest.check_raises "wrong width" (Invalid_argument "Table.add_row: wrong number of cells")
    (fun () -> Table.add_row t [ "only one" ])

let test_chart_empty () =
  let c = Chart.create ~title:"empty" ~x_label:"x" ~y_label:"y" () in
  Alcotest.(check bool) "no data note" true (contains (Chart.render c) "(no data)")

let test_chart_plots_points () =
  let c = Chart.create ~width:40 ~height:10 ~title:"fig" ~x_label:"txns" ~y_label:"locks" () in
  Chart.add_series c
    { Chart.label = "site 0"; glyph = '*'; points = [ (0.0, 0.0); (50.0, 25.0); (100.0, 0.0) ] };
  let rendered = Chart.render c in
  Alcotest.(check bool) "glyph plotted" true (contains rendered "*");
  Alcotest.(check bool) "legend" true (contains rendered "* = site 0");
  Alcotest.(check bool) "title" true (contains rendered "fig");
  Alcotest.(check bool) "x axis range" true (contains rendered "100.0")

let test_chart_multiple_series () =
  let c = Chart.create ~width:30 ~height:8 ~title:"two" ~x_label:"x" ~y_label:"y" () in
  Chart.add_series c { Chart.label = "a"; glyph = '*'; points = [ (0.0, 1.0); (10.0, 1.0) ] };
  Chart.add_series c { Chart.label = "b"; glyph = 'o'; points = [ (0.0, 5.0); (10.0, 5.0) ] };
  let rendered = Chart.render c in
  Alcotest.(check bool) "both glyphs" true (contains rendered "*" && contains rendered "o");
  Alcotest.(check bool) "both legends" true
    (contains rendered "* = a" && contains rendered "o = b")

let test_chart_degenerate_range () =
  (* A single point must not divide by zero. *)
  let c = Chart.create ~width:20 ~height:6 ~title:"dot" ~x_label:"x" ~y_label:"y" () in
  Chart.add_series c { Chart.label = "p"; glyph = '#'; points = [ (5.0, 5.0) ] };
  Alcotest.(check bool) "renders" true (String.length (Chart.render c) > 0)

let test_chart_validation () =
  Alcotest.check_raises "degenerate size" (Invalid_argument "Chart.create: degenerate size")
    (fun () -> ignore (Chart.create ~width:1 ~title:"t" ~x_label:"x" ~y_label:"y" ()))

let suite =
  [
    Alcotest.test_case "table basics" `Quick test_table_basic;
    Alcotest.test_case "table validation" `Quick test_table_validation;
    Alcotest.test_case "chart with no data" `Quick test_chart_empty;
    Alcotest.test_case "chart plots points" `Quick test_chart_plots_points;
    Alcotest.test_case "chart multiple series" `Quick test_chart_multiple_series;
    Alcotest.test_case "chart degenerate range" `Quick test_chart_degenerate_range;
    Alcotest.test_case "chart validation" `Quick test_chart_validation;
  ]
