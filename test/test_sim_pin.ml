(* Exact simulator counts, pinned.  Every cycle, instruction, L1
   hit/miss, LSQ-stall and misspeculation count below was recorded from
   the original tree-walking simulator; any rewrite of lib/machine must
   reproduce them bit for bit.  The set covers integer and FP programs
   on all four variants, the lsq-off ablation (the [Simulate.run ?md]
   path) and a speculative schedule ([--speculate 750] drops three
   store-to-load edges in mdljdp2).  The recovery path itself is pinned
   on a hand-built program in test_machine.ml. *)

let counts_of (r : Machine.Simulate.report) =
  Machine.Simulate.
    (r.cycles, r.dyn_insns, r.l1_hits, r.l1_misses, r.lsq_stalls, r.misspeculations)

let show (c, d, h, m, l, s) =
  Printf.sprintf "(%d, %d, %d, %d, %d, %d)" c d h m l s

(* (configuration, variant), (cycles, dyn_insns, l1_hits, l1_misses,
   lsq_stalls, misspeculations) *)
let pinned =
  [
    (("wc", "gcc/r4600"), (28115270, 12615935, 1048587, 65545, 0, 0));
    (("wc", "hli/r4600"), (28115266, 12615935, 1048587, 65545, 0, 0));
    (("wc", "gcc/r10000"), (11378916, 12615935, 1048587, 65545, 2101578, 0));
    (("wc", "hli/r10000"), (11378916, 12615935, 1048587, 65545, 2101580, 0));
    (("129.compress", "gcc/r4600"), (16520164, 8708531, 940563, 158593, 0, 0));
    (("129.compress", "hli/r4600"), (16520162, 8708531, 940563, 158593, 0, 0));
    (("129.compress", "gcc/r10000"), (5885791, 8708531, 1028211, 70945, 284196, 0));
    (("129.compress", "hli/r10000"), (5885791, 8708531, 1028211, 70945, 284197, 0));
    (("023.eqntott", "gcc/r4600"), (5224000, 2715376, 483123, 10431, 0, 0));
    (("023.eqntott", "hli/r4600"), (5223999, 2715376, 483123, 10431, 0, 0));
    (("023.eqntott", "gcc/r10000"), (2816988, 2715376, 491973, 1581, 719702, 0));
    (("023.eqntott", "hli/r10000"), (2816988, 2715376, 491973, 1581, 719702, 0));
    (("101.tomcatv", "gcc/r4600"), (13224384, 7643595, 1013256, 235320, 0, 0));
    (("101.tomcatv", "hli/r4600"), (12955552, 7643595, 1013256, 235320, 0, 0));
    (("101.tomcatv", "gcc/r10000"), (4137087, 7643595, 1013620, 234956, 3063248, 0));
    (("101.tomcatv", "hli/r10000"), (4137087, 7643595, 1013620, 234956, 3063240, 0));
    (("023.eqntott+lsq-off", "gcc/r4600"), (5224000, 2715376, 483123, 10431, 0, 0));
    (("023.eqntott+lsq-off", "hli/r4600"), (5223999, 2715376, 483123, 10431, 0, 0));
    (("023.eqntott+lsq-off", "gcc/r10000"), (2806901, 2715376, 491973, 1581, 0, 0));
    (("023.eqntott+lsq-off", "hli/r10000"), (2806901, 2715376, 491973, 1581, 0, 0));
    (("034.mdljdp2+speculate=750", "gcc/r4600"), (15753602, 8003165, 1951548, 541, 0, 0));
    (("034.mdljdp2+speculate=750", "hli/r4600"), (14366980, 8003165, 1951548, 541, 0, 0));
    (("034.mdljdp2+speculate=750", "gcc/r10000"), (6685222, 8003165, 1951654, 435, 18229600, 0));
    (("034.mdljdp2+speculate=750", "hli/r10000"), (5684961, 8003165, 1951654, 435, 3399960, 0));
  ]

let measure ablation name =
  let w = Option.get (Workloads.Registry.find name) in
  let config = { Harness.Pipeline.default_config with ablation } in
  let c = Harness.Pipeline.compile ~config w.Workloads.Workload.source in
  (Harness.Pipeline.measure c).Harness.Pipeline.reports

let case label ablation name =
  Alcotest.test_case label `Slow (fun () ->
      List.iter
        (fun (v, r) ->
          let variant = Driver.Variant.name v in
          Alcotest.(check string)
            (label ^ " " ^ variant)
            (show (List.assoc (label, variant) pinned))
            (show (counts_of r)))
        (measure ablation name))

let baseline = Driver.Variant.baseline

let lsq_off = Option.get (Driver.Variant.find_ablation "lsq-off")

let () =
  Alcotest.run "sim_pin"
    [
      ( "exact",
        List.map
          (fun n -> case n baseline n)
          [ "wc"; "129.compress"; "023.eqntott"; "101.tomcatv" ]
        @ [
            case "023.eqntott+lsq-off" lsq_off "023.eqntott";
            case "034.mdljdp2+speculate=750"
              (Driver.Variant.with_speculate 750 baseline)
              "034.mdljdp2";
          ] );
    ]
