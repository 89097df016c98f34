(* The modchecker command-line tool.

   Because the whole testbed is simulated, every subcommand first builds a
   cloud (VM count, cores, and seed are flags), optionally stages an
   infection, and then runs the requested analysis against it. The flags
   those steps share are defined once, below, as Cmdliner terms that
   validate their values and yield plain records. *)

open Cmdliner

module Cloud = Mc_hypervisor.Cloud
module Json = Mc_util.Json
module Artifact = Modchecker.Artifact
module Searcher = Modchecker.Searcher
module Orchestrator = Modchecker.Orchestrator
module Report = Modchecker.Report
module Patrol = Modchecker.Patrol
module Exit_code = Modchecker.Exit_code

(* --- failing, naming, printing ------------------------------------------ *)

(* Every exit-1 path: one "error: ..." line on stderr. *)
let die fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("error: " ^ msg);
      exit Exit_code.error)
    fmt

let or_die = function Ok v -> v | Error msg -> die "%s" msg

let open_or_die open_ path = try open_ path with Sys_error msg -> die "%s" msg

let dom vm = Printf.sprintf "Dom%d" (vm + 1)

let doms ?(sep = ",") vms = String.concat sep (List.map dom vms)

let print_json j = print_endline (Json.to_string_pretty j)

(* [arg] when the subcommand offers the flag, else the value it has always
   had without it. *)
let offered present arg absent = if present then arg else Term.const absent

(* A count below 1 exits 1 here, before anything runs. *)
let at_least_one name arg =
  let check n =
    if n < 1 then die "--%s must be at least 1, got %d" name n else n
  in
  Term.(const check $ arg)

(* --- observability: -v, --trace, --metrics ------------------------------ *)

let setup_logs ~quiet verbose =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (Some (if verbose then Logs.Debug else quiet))

(* Export telemetry via [at_exit] so subcommands that [exit 2] on a failed
   verdict still flush their trace. *)
let with_telemetry trace metrics f =
  if trace <> None || metrics then begin
    Mc_telemetry.Registry.set_enabled true;
    at_exit (fun () ->
        let snap = Mc_telemetry.Registry.snapshot () in
        (match trace with
        | Some path -> (
            (* The verdict already happened; a bad trace path must not
               turn it into a crash (or clobber the exit code). *)
            try Mc_telemetry.Export.write ~path snap
            with Sys_error msg ->
              Printf.eprintf "modchecker: cannot write trace: %s\n" msg)
        | None -> ());
        if metrics then print_string (Mc_telemetry.Export.summary snap))
  end;
  f ()

(* The subcommand's observability flags, as a wrapper [observe] that
   switches on what they ask for and then runs its argument. Subcommands
   build their cloud inside it, so boot-time counters (cloud.vm_boots) are
   recorded too. Without a -v flag Logs stays unset; with one, [quiet] is
   the level when it is not given. *)
let observe_term ?(verbose = true) ?(telemetry = true) ?(quiet = Logs.Warning)
    () =
  let verbose_arg =
    let doc = "Enable debug logging on stderr." in
    Term.(const Option.some $ Arg.(value & flag & info [ "v"; "verbose" ] ~doc))
  in
  let trace_arg =
    let doc =
      "Enable telemetry and write a JSONL trace (one span or metric point \
       per line) to $(docv)."
    in
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)
  in
  let metrics_arg =
    let doc =
      "Enable telemetry and print a metrics summary (span totals, counters, \
       histogram quantiles) when done."
    in
    Arg.(value & flag & info [ "metrics" ] ~doc)
  in
  let observe verbose trace metrics f =
    with_telemetry trace metrics @@ fun () ->
    Option.iter (setup_logs ~quiet) verbose;
    f ()
  in
  Term.(
    const observe
    $ offered verbose verbose_arg None
    $ offered telemetry trace_arg None
    $ offered telemetry metrics_arg false)

(* --- the pool: --vms, --cores, --seed, --fault-spec --------------------- *)

type pool = {
  vms : int;
  cores : int;
  seed : int64;
  fault_spec : Mc_memsim.Faultplan.spec option;
}

let vms_arg ?(default = 15)
    ?(doc = "Number of DomU guests in the simulated cloud.") () =
  at_least_one "vms"
    Arg.(value & opt int default & info [ "vms" ] ~docv:"N" ~doc)

let cores_arg =
  let doc = "Physical cores of the simulated host." in
  Arg.(value & opt int 8 & info [ "cores" ] ~docv:"N" ~doc)

let seed_arg =
  let doc = "Deterministic seed for the cloud (module load bases etc.)." in
  Arg.(value & opt int64 2012L & info [ "seed" ] ~docv:"SEED" ~doc)

let fault_spec_arg =
  let parse s =
    Result.map_error (fun e -> `Msg e) (Mc_memsim.Faultplan.of_string s)
  in
  let print fmt s =
    Format.pp_print_string fmt (Mc_memsim.Faultplan.to_string s)
  in
  let doc =
    "Arm deterministic fault injection on every DomU. Comma-separated \
     key=value pairs: 'transient', 'paged', 'torn', 'pause' are \
     probabilities in [0,1], 'seed' picks the fault pattern. E.g. \
     'transient=0.05,seed=7'. Faults are absorbed by bounded retries; a \
     VM whose retries are exhausted is excluded from the vote rather \
     than miscounted."
  in
  Arg.(
    value
    & opt (some (conv ~docv:"SPEC" (parse, print))) None
    & info [ "fault-spec" ] ~docv:"SPEC" ~doc)

let pool_term ?(vms = vms_arg ()) ?(faults = true) () =
  let make vms cores seed fault_spec = { vms; cores; seed; fault_spec } in
  Term.(
    const make $ vms $ cores_arg $ seed_arg
    $ offered faults fault_spec_arg None)

let make_cloud p =
  Cloud.create ~vms:p.vms ~cores:p.cores ~seed:p.seed ?fault_spec:p.fault_spec
    ()

(* --- the target: --vm, --infect ----------------------------------------- *)

type target = {
  vm : int;
  infect : [ `Opcode | `Hook | `Stub | `Dll | `Ptr | `Hide ] option;
}

let vm_arg =
  let doc = "Target DomU index, 0-based (Dom1 is index 0)." in
  Arg.(value & opt int 0 & info [ "vm" ] ~docv:"I" ~doc)

let infect_arg =
  let doc =
    "Stage an infection before checking: one of 'opcode', 'hook', 'stub', \
     'dll-inject', 'ptr', 'hide'."
  in
  Arg.(
    value
    & opt (some (enum
           [ ("opcode", `Opcode); ("hook", `Hook); ("stub", `Stub);
             ("dll-inject", `Dll); ("ptr", `Ptr); ("hide", `Hide) ]))
        None
    & info [ "infect" ] ~docv:"TECHNIQUE" ~doc)

let require_vm p vm =
  if vm < 0 || vm >= p.vms then
    die "--vm %d: no such DomU in a %d-VM pool" vm p.vms

(* The pool with the DomU the subcommand targets. [vm] is range-checked
   whenever it is used: with --infect, or [always] (the subcommand reads
   that guest itself; the default when it has no --infect). *)
let target_term ?(infect = true) ?(always = not infect) pool =
  let make p vm infect =
    if always || infect <> None then require_vm p vm;
    (p, { vm; infect })
  in
  Term.(const make $ pool $ vm_arg $ offered infect infect_arg None)

(* Stage [t]'s infection, if any, and announce it on stdout as
   "[prefix]staged: TECHNIQUE on [host]DomN", plus the infection's details
   when [details]. [quiet] (--json, --stream) leaves stdout to the result. *)
let stage ?(quiet = false) ?(prefix = "") ?(host = "") ?(details = false)
    cloud t =
  let open Mc_malware.Infect in
  let infect vm = function
    | `Opcode -> single_opcode_replacement cloud ~vm
    | `Hook -> inline_hook cloud ~vm
    | `Stub -> stub_modification cloud ~vm
    | `Dll -> dll_injection cloud ~vm
    | `Ptr -> pointer_hook cloud ~vm
    | `Hide -> hide_module cloud ~vm ~module_name:"http.sys"
  in
  Option.iter
    (fun technique ->
      let inf = or_die (infect t.vm technique) in
      if not quiet then
        Printf.printf "%sstaged: %s on %s%s%s\n" prefix inf.technique host
          (dom t.vm)
          (if details then Printf.sprintf " (%s)" inf.details else ""))
    t.infect

(* --- the check config: --quorum, --deadline, --canonical ---------------- *)

let fraction =
  let parse s =
    match float_of_string_opt s with
    | Some f when f >= 0.0 && f <= 1.0 -> Ok f
    | _ -> Error (Printf.sprintf "expected a fraction in [0,1], got %S" s)
  in
  Arg.conv' ~docv:"FRACTION" (parse, Arg.conv_printer Arg.float)

(* Every subcommand's knobs meet Orchestrator.Config here, in one place. *)
let config_term ?(quorum = true) ?(deadline = false) ?(canonical = false) () =
  let quorum_arg =
    let doc =
      "Minimum responding fraction of the surveyed VMs for a verdict to \
       count; below the floor the verdict is DEGRADED (exit code 3, never \
       confused with an infection's exit code 2)."
    in
    Arg.(
      value
      & opt fraction Report.default_quorum
      & info [ "quorum" ] ~docv:"FRACTION" ~doc)
  in
  let deadline_arg =
    let doc =
      "Per-VM introspection deadline in seconds (wall clock); enforced in \
       parallel mode, where a task past the deadline is abandoned and its \
       VM counted unreachable."
    in
    Arg.(
      value & opt (some float) None & info [ "deadline" ] ~docv:"SECONDS" ~doc)
  in
  let canonical_arg =
    Arg.(value & flag & info [ "canonical" ]
         ~doc:"Use the O(t) canonical survey strategy.")
  in
  let make quorum deadline canonical =
    let module C = Orchestrator.Config in
    C.default |> C.with_quorum quorum
    |> (if canonical then C.with_strategy Orchestrator.Canonical else Fun.id)
    |> match deadline with Some d -> C.with_deadline d | None -> Fun.id
  in
  Term.(
    const make
    $ offered quorum quorum_arg Report.default_quorum
    $ offered deadline deadline_arg None
    $ offered canonical canonical_arg false)

(* --- other shared flags ------------------------------------------------- *)

let module_arg =
  let doc = "Kernel module to check (e.g. hal.dll, http.sys)." in
  Arg.(value & opt string "hal.dll" & info [ "m"; "module" ] ~docv:"NAME" ~doc)

let workers_arg =
  let doc = "Dom0 worker domains for parallel checking (1 = sequential)." in
  Arg.(value & opt int 1 & info [ "j"; "workers" ] ~docv:"W" ~doc)

let json_arg =
  let doc = "Emit the result as JSON on stdout instead of tables." in
  Arg.(value & flag & info [ "json" ] ~doc)

(* A VMI session on guest [vm], with the symbols of its own kernel build. *)
let guest_vmi cloud vm =
  let dom = Cloud.vm cloud vm in
  Mc_vmi.Vmi.init dom
    (Mc_vmi.Symbols.of_variant
       (Mc_winkernel.Kernel.os_variant (Mc_hypervisor.Dom.kernel_exn dom)))

(* --- check ------------------------------------------------------------- *)

(* Descend the two .text trees first and hand the deviant page spans to
   the byte-level survey, so pinpointing scans O(deviant pages) instead of
   the whole section. *)
let merkle_pinpoint_ranges ~base1 a1 ~base2 a2 =
  let text arts = Artifact.find arts (Artifact.Section_data ".text") in
  match (text a1, text a2) with
  | Some t1, Some t2 when Bytes.length t1.data = Bytes.length t2.data ->
      let d1 = Bytes.copy t1.data and d2 = Bytes.copy t2.data in
      ignore (Modchecker.Rva.adjust_pair ~base1 ~base2 d1 d2);
      let ranges =
        Modchecker.Checker.(
          deviant_ranges (merkle_of_bytes d1) (merkle_of_bytes d2))
      in
      Printf.printf "pinpoint: merkle descent localized %d deviant page(s)\n"
        (List.length ranges);
      Some ranges
  | _ -> None

(* Name the patched function(s) in [vm]'s .text, against any other VM as
   the reference: the majority of the pool is clean whenever the verdict
   is meaningful. *)
let print_pinpoint cloud report module_name vm =
  let fetch vm =
    Option.bind (Searcher.fetch (guest_vmi cloud vm) ~name:module_name)
      (fun (info, buf) ->
        Modchecker.Parser.artifacts buf
        |> Result.to_option
        |> Option.map (fun arts -> (info.Searcher.mi_base, arts)))
  in
  let text = Artifact.equal_kind (Artifact.Section_data ".text") in
  let peer =
    List.find_opt (( <> ) vm) (List.init (Cloud.vm_count cloud) Fun.id)
  in
  if not (List.exists text report.Report.flagged_artifacts) then
    print_endline "pinpoint: .text is not among the flagged artifacts"
  else
    match Option.map (fun peer -> (peer, fetch vm, fetch peer)) peer with
    | None -> ()
    | Some (peer, Some (base1, a1), Some (base2, a2)) -> (
        let symbols = Mc_pe.Catalog.symbols (Mc_pe.Catalog.image module_name) in
        let ranges = merkle_pinpoint_ranges ~base1 a1 ~base2 a2 in
        match
          Modchecker.Pinpoint.analyze_text_pair ?ranges ~base1 a1 ~base2 a2
            ~symbols
        with
        | Ok findings ->
            Printf.printf "pinpoint (vs %s):\n" (dom peer);
            List.iter
              (fun (f : Modchecker.Pinpoint.finding) ->
                Printf.printf
                  "  %s (rva 0x%x): %d byte(s) changed, first at rva 0x%x\n"
                  f.pf_function f.pf_fn_rva f.pf_diff_bytes f.pf_first_diff_rva)
              findings
        | Error e -> Printf.printf "pinpoint failed: %s\n" e)
    | Some _ -> print_endline "pinpoint: could not fetch both copies"

let run_check observe (pool, target) module_name workers config pinpoint json =
  observe @@ fun () ->
  let cloud = make_cloud pool in
  stage ~details:true cloud target;
  let mode =
    if workers <= 1 then Orchestrator.Sequential
    else Orchestrator.Parallel (Mc_parallel.Pool.create workers)
  in
  let config = Orchestrator.Config.with_mode mode config in
  let outcome =
    or_die
      (Orchestrator.check_module ~config cloud ~target_vm:target.vm
         ~module_name)
  in
  (match mode with
  | Orchestrator.Parallel pool -> Mc_parallel.Pool.shutdown pool
  | Orchestrator.Sequential -> ());
  let report = outcome.Orchestrator.report in
  if json then print_json (Report.to_json report)
  else begin
    Printf.printf "%s\n" (Report.to_table report);
    Printf.printf "verdict: %s\n" (Report.verdict_string report);
    let p = Orchestrator.phase_seconds Mc_hypervisor.Costs.default outcome in
    Printf.printf
      "simulated cost: searcher %.2f ms, parser %.2f ms, checker %.2f ms\n"
      (p.searcher_s *. 1e3) (p.parser_s *. 1e3) (p.checker_s *. 1e3);
    if pinpoint && report.Report.verdict = Report.Infected then
      print_pinpoint cloud report module_name target.vm
  end;
  Exit_code.exit_with (Exit_code.of_verdict report.Report.verdict)

let check_cmd =
  let doc = "Check one module's integrity across the VM pool." in
  let pinpoint_arg =
    let doc =
      "After a .text mismatch, name the patched function(s) using the\n\
       module's symbols (dAnubis-style)."
    in
    Arg.(value & flag & info [ "pinpoint" ] ~doc)
  in
  Cmd.v
    (Cmd.info "check" ~doc)
    Term.(
      const run_check $ observe_term ()
      $ target_term ~always:true (pool_term ())
      $ module_arg $ workers_arg
      $ config_term ~deadline:true ()
      $ pinpoint_arg $ json_arg)

(* --- survey ------------------------------------------------------------ *)

let run_survey observe (pool, target) module_name config json =
  observe @@ fun () ->
  let cloud = make_cloud pool in
  stage ~quiet:json cloud target;
  let s = Orchestrator.survey ~config cloud ~module_name in
  if json then print_json (Report.survey_to_json s)
  else begin
    Printf.printf "module: %s\n" s.Report.survey_module;
    let show name vms =
      Printf.printf "%s: %s\n" name
        (if vms = [] then "(none)" else doms ~sep:", " vms)
    in
    show "missing on" s.Report.missing_on;
    show "deviant (failed majority vote)" s.Report.deviant_vms;
    if s.Report.unreachable_on <> [] then
      show "unreachable (faults)" (List.map fst s.Report.unreachable_on)
  end;
  Exit_code.exit_with (Exit_code.of_survey s)

let survey_cmd =
  let doc = "Full-mesh comparison of one module across every VM." in
  Cmd.v
    (Cmd.info "survey" ~doc)
    Term.(
      const run_survey
      $ observe_term ~verbose:false ()
      $ target_term (pool_term ())
      $ module_arg $ config_term () $ json_arg)

(* --- list-modules ------------------------------------------------------ *)

let run_list (pool, target) =
  let row (m : Searcher.module_info) =
    [
      m.mi_name;
      Printf.sprintf "0x%08x" m.mi_base;
      Printf.sprintf "0x%x" m.mi_size;
      m.mi_full_name;
    ]
  in
  let mods = Searcher.list_modules (guest_vmi (make_cloud pool) target.vm) in
  print_string
    (Mc_util.Table.render
       ~header:[ "module"; "base"; "size"; "path" ]
       (List.map row mods))

let list_cmd =
  let doc = "Walk PsLoadedModuleList of one guest over VMI." in
  Cmd.v
    (Cmd.info "list-modules" ~doc)
    Term.(
      const run_list $ target_term ~infect:false (pool_term ~faults:false ()))

(* --- detect (the paper's evaluation suite) ----------------------------- *)

let run_detect vms seed fault_spec =
  print_string
    (Mc_harness.Render.detection_table
       (Mc_harness.Scenario.run_all ~vms ~seed ?faults:fault_spec ()))

let detect_cmd =
  let doc = "Run the paper's four detection experiments plus DKOM hiding." in
  Cmd.v
    (Cmd.info "detect" ~doc)
    Term.(const run_detect $ vms_arg () $ seed_arg $ fault_spec_arg)

(* --- figures ------------------------------------------------------------ *)

(* Every figure/table under its --which key, in the order --which all
   prints them. *)
let figures =
  let module F = Mc_harness.Figures in
  let module R = Mc_harness.Render in
  let max_vms p = max 1 (p.vms - 1) in
  [
    ( "fig7",
      fun p ->
        R.fig_series ~title:"Fig 7: runtime, mostly idle VMs"
          (F.fig7_idle ~max_vms:(max_vms p) ~cores:p.cores ~seed:p.seed ()) );
    ( "fig8",
      fun p ->
        R.fig_series ~title:"Fig 8: runtime, heavily loaded VMs"
          (F.fig8_loaded ~max_vms:(max_vms p) ~cores:p.cores ~seed:p.seed ())
    );
    ("fig9", fun _ -> R.fig9 (F.fig9_guest_impact ()));
    ( "ablation",
      fun _ ->
        let alignment = R.ablation_table (F.alignment_ablation ()) in
        alignment ^ R.cross_pointer_table (F.cross_pointer_ablation ()) );
    ( "parallel",
      fun p ->
        R.parallel_table
          (F.parallel_sweep ~vms:p.vms ~cores:p.cores ~seed:p.seed ()) );
    ("baselines", fun p -> R.baseline_table (F.baseline_table ~seed:p.seed ()));
    ( "strategy",
      fun p ->
        R.strategy_table (F.survey_strategy_table ~vms:p.vms ~seed:p.seed ()) );
    ("patrol", fun p -> R.patrol_table (F.patrol_tradeoff ~seed:p.seed ()));
    ( "incremental",
      fun p -> R.incremental_table (F.incremental_steady_state ~seed:p.seed ())
    );
    ("merkle", fun p -> R.merkle_table (F.merkle_dirty_sweep ~seed:p.seed ()));
    ("faults", fun p -> R.fault_table (F.fault_sweep ~seed:p.seed ()));
    ( "engine",
      fun p -> R.engine_table (F.engine_throughput ~vms:p.vms ~seed:p.seed ())
    );
    ( "federation",
      fun p -> R.federation_table (F.federation_scale ~seed:p.seed ()) );
    ("events", fun p -> R.events_table (F.events_tradeoff ~seed:p.seed ()));
    ("replay", fun p -> R.replay_table (F.replay_throughput ~seed:p.seed ()));
    ("evasion", fun _ -> R.evasion_table (F.evasion_detection ()));
  ]

let run_figures which pool =
  List.iter
    (fun (key, figure) ->
      if which = "all" || which = key then print_string (figure pool))
    figures

let figures_cmd =
  let doc = "Regenerate the paper's evaluation figures and the extensions." in
  let which_arg =
    let doc = "Which figure/table to regenerate." in
    let keys = List.map fst figures @ [ "all" ] in
    Arg.(
      value
      & opt (enum (List.map (fun k -> (k, k)) keys)) "all"
      & info [ "which" ] ~docv:"WHICH" ~doc)
  in
  Cmd.v
    (Cmd.info "figures" ~doc)
    Term.(const run_figures $ which_arg $ pool_term ~faults:false ())

(* --- health --------------------------------------------------------------- *)

let run_health observe (pool, target) config json =
  observe @@ fun () ->
  let cloud = make_cloud pool in
  stage ~quiet:json cloud target;
  let module Health = Modchecker.Pool_health in
  let report = Health.assess ~config cloud in
  if json then print_json (Health.to_json report)
  else begin
    print_string (Health.to_table report);
    print_endline (Health.summary report)
  end;
  if not report.Health.fr_clean then exit Exit_code.infected

let health_cmd =
  let doc = "Assess every module on every VM: the fleet dashboard." in
  Cmd.v
    (Cmd.info "health" ~doc)
    Term.(
      const run_health
      $ observe_term ~verbose:false ()
      $ target_term (pool_term ~faults:false ())
      $ config_term ~quorum:false ~canonical:true ()
      $ json_arg)

(* --- federate ------------------------------------------------------------ *)

let run_federate observe regions racks hosts_per_rack (pool, target)
    patch_levels slow_racks down host lists module_name engines workers
    host_quorum host_deadline json =
  observe @@ fun () ->
  let module Topo = Mc_federation.Topology in
  let module Co = Mc_federation.Coordinator in
  let spec =
    {
      Topo.regions;
      racks_per_region = racks;
      hosts_per_rack;
      vms_per_host = pool.vms;
      cores_per_host = pool.cores;
      patch_levels;
      slow_racks;
      seed = pool.seed;
      fault_spec = pool.fault_spec;
    }
  in
  let topo = try Topo.create ~spec () with Invalid_argument m -> die "%s" m in
  let hosts = Topo.host_count topo in
  if host < 0 || host >= hosts then
    die "no host %d in a %d-host fleet" host hosts;
  stage ~quiet:json ~host:(Printf.sprintf "host%d/" host) ~details:true
    (Topo.host topo host).Mc_federation.Host.cloud target;
  List.iter
    (fun h ->
      if h >= 0 && h < hosts then Topo.set_host_down topo h
      else die "cannot take down host %d of %d" h hosts)
    down;
  let config =
    {
      Co.default_config with
      Co.host_quorum;
      host_deadline_s = host_deadline;
      use_engines = engines;
      workers;
    }
  in
  let code =
    if lists then begin
      let fl = Co.survey_lists ~config topo in
      if json then
        print_json
          (Json.Obj
             [
               ("schema", Json.String "modchecker/federation-lists@1");
               ("verdict", Json.String (Report.verdict_key fl.Co.fl_verdict));
               ("hosts_surveyed", Json.Int fl.Co.fl_hosts_surveyed);
               ("hosts_responded", Json.Int fl.Co.fl_hosts_responded);
             ])
      else
        List.iter
          (fun (h : Co.host_lists) ->
            match h.hl_outcome with
            | Ok lc ->
                Printf.printf "host%d: %d discrepancies, %d unreachable VMs\n"
                  h.hl_host
                  (List.length lc.Orchestrator.lc_discrepancies)
                  (List.length lc.Orchestrator.lc_unreachable)
            | Error e -> Printf.printf "host%d: UNREACHABLE (%s)\n" h.hl_host e)
          fl.Co.fl_per_host;
      Co.exit_code_lists fl
    end
    else begin
      let r = Co.survey ~config topo ~module_name in
      if json then print_json (Co.to_json r)
      else begin
        print_string (Co.to_table topo r);
        print_endline (Co.summary r)
      end;
      Co.exit_code r
    end
  in
  Topo.shutdown topo;
  Exit_code.exit_with code

let federate_cmd =
  let doc =
    "Survey a module across a simulated multi-host fleet (hosts x racks x \
     regions, mixed kernel builds) and merge verdicts hierarchically."
  in
  let regions_arg =
    Arg.(value & opt int 1 & info [ "regions" ] ~docv:"N" ~doc:"Regions.")
  in
  let racks_arg =
    Arg.(value & opt int 1 & info [ "racks" ] ~docv:"N"
         ~doc:"Racks per region.")
  in
  let hosts_arg =
    Arg.(value & opt int 3 & info [ "hosts-per-rack" ] ~docv:"N"
         ~doc:"Hosts per rack.")
  in
  let levels_arg =
    Arg.(value & opt (list int) [ 1 ] & info [ "patch-levels" ]
         ~docv:"L,L,..."
         ~doc:"Kernel builds cycled across hosts (host 0 gets the first). \
               Votes are grouped by build, so a mixed fleet never flags a \
               legitimate version split.")
  in
  let slow_rack_arg =
    Arg.(value & opt_all (pair ~sep:':' int float) [] & info [ "slow-rack" ]
         ~docv:"RACK:FACTOR"
         ~doc:"Stretch every response from the rack's hosts by FACTOR \
               (repeatable).")
  in
  let down_arg =
    Arg.(value & opt (list int) [] & info [ "down" ] ~docv:"H,H,..."
         ~doc:"Hosts to take down before surveying (whole-host outage).")
  in
  let fed_host_arg =
    Arg.(value & opt int 0 & info [ "host" ] ~docv:"H"
         ~doc:"Host carrying the staged infection (with --infect).")
  in
  let lists_arg =
    Arg.(value & flag & info [ "lists" ]
         ~doc:"Compare module load lists within each host (DKOM check) \
               instead of surveying one module.")
  in
  let engines_arg =
    Arg.(value & flag & info [ "engines" ]
         ~doc:"Drive each host through its own Mc_engine service instead \
               of direct orchestrator calls.")
  in
  let host_quorum_arg =
    Arg.(value & opt fraction 1.0 & info [ "host-quorum" ] ~docv:"FRACTION"
         ~doc:"Fraction of hosts that must respond; below it the fleet \
               verdict is DEGRADED (exit 3). Default 1.0: any whole-host \
               outage degrades.")
  in
  let host_deadline_arg =
    Arg.(value & opt (some float) None & info [ "host-deadline" ]
         ~docv:"SECONDS"
         ~doc:"Virtual response-time bound per host; a slow rack can push \
               healthy hosts past it (they count unreachable).")
  in
  let pool =
    pool_term ~vms:(vms_arg ~default:5 ~doc:"DomU guests per host." ()) ()
  in
  Cmd.v
    (Cmd.info "federate" ~doc)
    Term.(
      const run_federate $ observe_term () $ regions_arg $ racks_arg
      $ hosts_arg $ target_term pool $ levels_arg $ slow_rack_arg $ down_arg
      $ fed_host_arg $ lists_arg $ module_arg $ engines_arg $ workers_arg
      $ host_quorum_arg $ host_deadline_arg $ json_arg)

(* --- patrol and evade --------------------------------------------------- *)

type patrol_opts = {
  duration : float;
  interval : float;
  incremental : bool;
  event_driven : bool;
}

let patrol_opts_term ~interval_doc ~incremental_doc ~event_driven_doc =
  let make duration interval incremental event_driven =
    { duration; interval; incremental; event_driven }
  in
  Term.(
    const make
    $ Arg.(value & opt float 300.0 & info [ "duration" ] ~docv:"SECONDS"
           ~doc:"Virtual seconds to patrol.")
    $ Arg.(value & opt float 30.0 & info [ "interval" ] ~docv:"SECONDS"
           ~doc:interval_doc)
    $ Arg.(value & flag & info [ "incremental" ] ~doc:incremental_doc)
    $ Arg.(value & flag & info [ "event-driven" ] ~doc:event_driven_doc))

(* Patrol [cloud] as [opts] say: on write traps, or by polling every
   interval. Event-driven checking is incremental by construction, and
   [audit_anchors] needs the incremental caches, so it only holds with
   them. *)
let patrol opts ?(watch = Patrol.default_config.Patrol.watch)
    ?(audit_anchors = false) ~check ~events cloud =
  let incremental = opts.incremental || opts.event_driven in
  let config =
    {
      Patrol.default_config with
      Patrol.watch;
      interval_s = opts.interval;
      incremental;
      audit_anchors = audit_anchors && incremental;
      check;
    }
  in
  if opts.event_driven then
    Patrol.run_events ~config ~events cloud ~until:opts.duration
  else Patrol.run ~config ~events cloud ~until:opts.duration

(* Print the alarm log; any alarm exits 2. *)
let report_alarms (o : Patrol.outcome) =
  if o.alarms = [] then print_endline "no alarms."
  else begin
    print_endline "alarm log:";
    List.iter
      (fun (a : Patrol.alarm) ->
        Printf.printf "  [t=%6.1fs] %-25s %s on %s\n" a.at
          (Patrol.alarm_kind_string a.kind)
          a.alarm_module (doms a.alarm_vms))
      o.alarms;
    exit Exit_code.infected
  end

let run_patrol observe (pool, target) opts infect_at check =
  observe @@ fun () ->
  let cloud = make_cloud pool in
  let stage_at_infect_at cloud =
    stage ~prefix:(Printf.sprintf "[t=%6.1fs] " infect_at) cloud target
  in
  let events =
    if target.infect = None then [] else [ (infect_at, stage_at_infect_at) ]
  in
  let o = patrol opts ~check ~events cloud in
  Printf.printf
    "patrol finished: %d sweeps + %d reactions over %.1fs virtual, %.3fs \
     Dom0 CPU (%.3f%% duty), mean sweep %.1f ms\n"
    o.sweeps o.reactions o.virtual_elapsed o.cpu_spent
    (100.0 *. o.cpu_spent /. o.virtual_elapsed)
    (o.mean_sweep_wall *. 1e3);
  (match List.sort compare o.latencies_s with
  | [] -> ()
  | ls ->
      let n = List.length ls in
      Printf.printf
        "detection latency: median %.3fs, max %.3fs over %d alarm(s)\n"
        (List.nth ls (n / 2))
        (List.nth ls (n - 1))
        n);
  report_alarms o

let patrol_cmd =
  let doc = "Run the patrol service on the simulated cloud's clock." in
  let infect_at_arg =
    Arg.(value & opt float 65.0 & info [ "infect-at" ] ~docv:"SECONDS"
         ~doc:"Virtual time at which to stage the --infect technique.")
  in
  let opts =
    patrol_opts_term ~interval_doc:"Sweep interval."
      ~incremental_doc:
        "Track dirty pages and re-check only what changed between sweeps \
         (log-dirty + Merkle digest cache: k dirty module pages cost k leaf \
         hashes)."
      ~event_driven_doc:
        "Replace polling with hypervisor write traps on the pages backing \
         the watched modules: a guest write triggers an immediate targeted \
         re-check (implies --incremental), with a slow full sweep as a \
         safety net. $(b,--interval) then sets the safety-sweep period's \
         base (20x)."
  in
  Cmd.v
    (Cmd.info "patrol" ~doc)
    Term.(
      const run_patrol $ observe_term ()
      $ target_term (pool_term ())
      $ opts $ infect_at_arg
      $ config_term ~deadline:true ~canonical:true ())

module Strategy = Mc_malware.Strategy

let run_evade observe pool strategy vm victims module_name func start dwell
    period opts check =
  observe @@ fun () ->
  (* The racer patches --victims instead. *)
  if strategy <> Strategy.Race then require_vm pool vm;
  let cloud = make_cloud pool in
  let machine =
    or_die
      (match strategy with
      | Strategy.Toctou ->
          Strategy.toctou ~module_name ?func cloud ~vm ~start ~dwell ~period
      | Strategy.Pager -> Strategy.pager ~module_name ?func cloud ~vm ~start
      | Strategy.Race ->
          let vs =
            if victims <> [] then victims
            else List.init ((pool.vms / 2) + 1) Fun.id
          in
          Strategy.race ~module_name ?func cloud ~vms:vs ~start
      | Strategy.Tamper ->
          Strategy.tamper ~module_name ?func cloud ~vm ~start)
  in
  let seconds s = if s = infinity then "inf" else Printf.sprintf "%.1fs" s in
  Printf.printf
    "adversary: %s on %s, target %s:%s, start %.1fs, dwell %s, period %s\n"
    (Strategy.kind_key (Strategy.kind machine))
    (doms (Strategy.vms machine))
    (Strategy.target machine) (Strategy.func machine)
    (Strategy.start machine)
    (seconds (Strategy.dwell machine))
    (seconds (Strategy.period machine));
  let events = Strategy.events machine ~until:opts.duration in
  let o =
    (* The read-channel anchor audit is what catches the checker-tamperer. *)
    try
      patrol opts ~watch:[ module_name ] ~audit_anchors:true ~check ~events
        cloud
    with Failure msg -> die "adversary mutation failed: %s" msg
  in
  Printf.printf
    "patrol finished: %d sweeps + %d reactions over %.1fs virtual; \
     adversary performed %d infection(s), %d restore(s)%s\n"
    o.sweeps o.reactions o.virtual_elapsed
    (Strategy.infections machine)
    (Strategy.restores machine)
    (if Strategy.masked machine then " (foreign-read shim still installed)"
     else "");
  (match Patrol.time_to_detect o ~module_name ~infected_at:start with
  | Some d -> Printf.printf "detected %.3fs after the first infection\n" d
  | None ->
      Printf.printf "EVADED: no integrity alarm named %s after t=%.1fs\n"
        module_name start);
  report_alarms o

let evade_cmd =
  let doc =
    "Launch an evasive adversary (TOCTOU restorer, pager, coordinated \
     racer, checker-tamperer) against the patrol and report whether it \
     was caught."
  in
  let strategy_arg =
    let key k = (Strategy.kind_key k, k) in
    let strategies = List.map key (Array.to_list Strategy.all_kinds) in
    Arg.(
      value
      & opt (enum strategies) Strategy.Toctou
      & info [ "strategy" ] ~docv:"NAME"
          ~doc:"Adversary strategy: 'toctou' (infect, restore after \
                --dwell, re-infect every --period), 'pager' (hook, then \
                make the victim unmappable from Dom0), 'race' \
                (coordinated opcode patch on --victims to flip the \
                vote), or 'tamper' (foreign-read shim serving clean \
                bytes to the checker).")
  in
  let victims_arg =
    Arg.(value & opt (list int) [] & info [ "victims" ] ~docv:"I,I,..."
         ~doc:"VMs the coordinated racer patches (--strategy race); \
               defaults to the smallest strict majority 0,1,...")
  in
  let func_arg =
    Arg.(value & opt (some string) None & info [ "func" ] ~docv:"SYMBOL"
         ~doc:"Exported function to hook (default HalInitSystem).")
  in
  let start_arg =
    Arg.(value & opt float 65.0 & info [ "start" ] ~docv:"SECONDS"
         ~doc:"Virtual time of the first infection.")
  in
  let dwell_arg =
    Arg.(value & opt float 5.0 & info [ "dwell" ] ~docv:"SECONDS"
         ~doc:"TOCTOU dirty-window length before the clean bytes come \
               back.")
  in
  let period_arg =
    Arg.(value & opt float 60.0 & info [ "period" ] ~docv:"SECONDS"
         ~doc:"TOCTOU re-infection period ('inf' for one cycle).")
  in
  let opts =
    patrol_opts_term
      ~interval_doc:
        "Sweep interval (a polling checker only catches a TOCTOU restorer \
         when a sweep lands inside a dirty window)."
      ~incremental_doc:
        "Track dirty pages between sweeps; also arms the read-channel \
         anchor audit that catches the checker-tamperer."
      ~event_driven_doc:
        "Replace polling with hypervisor write traps: the TOCTOU restorer's \
         own restore write triggers the re-check (implies --incremental)."
  in
  Cmd.v
    (Cmd.info "evade" ~doc)
    Term.(
      const run_evade $ observe_term ()
      $ pool_term ~faults:false ()
      $ strategy_arg $ vm_arg $ victims_arg $ module_arg $ func_arg
      $ start_arg $ dwell_arg $ period_arg $ opts
      $ config_term ~deadline:true ())

(* --- serve ---------------------------------------------------------------- *)

module Wire = Mc_engine.Wire

let reply_line (reply : Wire.reply) =
  match reply with
  | Wire.Resp r -> (
      let key = Wire.frame_key r.Wire.rs_frame in
      match r.Wire.rs_body with
      | Wire.Report_body rep ->
          Printf.sprintf "%-28s %s" key (Report.verdict_string rep)
      | Wire.Error_body e -> Printf.sprintf "%-28s ERROR: %s" key e
      | Wire.Survey_body s ->
          Printf.sprintf "%-28s %s%s" key
            (Report.verdict_key s.Report.s_verdict)
            (match (s.Report.deviant_vms, s.Report.missing_on) with
            | [], [] -> ""
            | dev, miss ->
                Printf.sprintf " (deviant: %s; missing: %s)"
                  (String.concat "," (List.map string_of_int dev))
                  (String.concat "," (List.map string_of_int miss)))
      | Wire.Lists_body lc ->
          Printf.sprintf "%-28s %d discrepancy(ies)" key
            (List.length lc.Orchestrator.lc_discrepancies))
  | Wire.Busy { b_seq; b_retry_after_s; b_queue_bound } ->
      Printf.sprintf "#%d busy: retry after %.3fs (queue bound %d)" b_seq
        b_retry_after_s b_queue_bound
  | Wire.Draining { d_seq } -> Printf.sprintf "#%d draining" d_seq
  | Wire.Invalid { i_seq; i_error } ->
      Printf.sprintf "#%d invalid: %s" i_seq i_error

let run_serve observe (pool, target) requests_path stream window ledger_path
    shards workers queue_bound config json =
  observe @@ fun () ->
  let cloud = make_cloud pool in
  stage ~quiet:(json || stream) cloud target;
  let engine =
    Mc_engine.create ~shards ~workers_per_shard:workers ~queue_bound ~config
      cloud
  in
  let ledger_oc = Option.map (open_or_die open_out) ledger_path in
  let ledger =
    Option.map (fun oc -> Mc_ledger.create ~sink:(output_string oc) ()) ledger_oc
  in
  let ic =
    match requests_path with
    | None | Some "-" -> stdin
    | Some path -> open_or_die open_in path
  in
  let lineno = ref 0 in
  let next () =
    match input_line ic with
    | exception End_of_file -> None
    | l ->
        incr lineno;
        Some l
  in
  let started = Unix.gettimeofday () in
  (* Streaming mode prints one compact JSON reply per line, as it happens.
     Batch mode puts the whole file in flight at once (an unbounded window:
     the engine's queue bound is the only backpressure) and prints the
     ordered replies at the end; Busy and Draining are retried internally
     and the stats line reports their volume. *)
  let replies = ref [] in
  let emit = function
    | reply when stream ->
        print_endline (Json.to_string (Wire.reply_to_json reply))
    | Wire.Resp _ as reply -> replies := reply :: !replies
    | Wire.Invalid { i_error; _ } as reply ->
        prerr_endline (Printf.sprintf "error: line %d: %s" !lineno i_error);
        replies := reply :: !replies
    | Wire.Busy _ | Wire.Draining _ -> ()
  in
  let window = if stream then window else max_int in
  let sv = Mc_engine.Serve.run ~window ?ledger ~emit engine ~next in
  let stats = Mc_engine.stats engine in
  let replies = List.rev !replies in
  if stream then ()
  else if json then print_json (Json.List (List.map Wire.reply_to_json replies))
  else begin
    List.iter
      (function Wire.Invalid _ -> () | r -> print_endline (reply_line r))
      replies;
    Printf.printf
      "served %d request(s) in %.3fs real: %d coalesced, %d serviced, %d \
       busy, max queue depth %d\n"
      sv.sv_requests
      (Unix.gettimeofday () -. started)
      stats.st_coalesced stats.st_completed sv.sv_busy stats.st_max_queue_depth
  end;
  if ic != stdin then close_in_noerr ic;
  Mc_engine.drain engine;
  Option.iter close_out ledger_oc;
  if stream then
    Printf.eprintf
      "# served %d request(s) in %.3fs real: %d response(s), %d busy, %d \
       retr%s, %d invalid, %d coalesced, max in-flight %d\n%!"
      sv.sv_requests
      (Unix.gettimeofday () -. started)
      sv.sv_responses sv.sv_busy sv.sv_retries
      (if sv.sv_retries = 1 then "y" else "ies")
      sv.sv_invalid stats.st_coalesced sv.sv_max_inflight;
  (match (ledger, ledger_path) with
  | Some l, Some path ->
      let note =
        Printf.sprintf "ledger: %d entr%s -> %s, head %s" (Mc_ledger.length l)
          (if Mc_ledger.length l = 1 then "y" else "ies")
          path (Mc_ledger.head l)
      in
      if stream || json then Printf.eprintf "# %s\n%!" note
      else print_endline note
  | _ -> ());
  Exit_code.exit_with sv.sv_exit

let serve_cmd =
  let doc =
    "Run check/survey/lists requests through the long-lived checking \
     engine (sharded workers, coalescing, shared caches) -- as a batch, \
     or as a streaming session with windowed backpressure."
  in
  let requests_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "requests" ] ~docv:"FILE"
          ~doc:
            "Request file: one request per line, \
             'kind vm module [priority]' with '-' for unused fields. \
             Kinds: check, survey, lists; priorities: high, normal \
             (default), low. '#' starts a comment. Omit (or pass '-') \
             to read from stdin.")
  in
  let stream_arg =
    Arg.(
      value & flag
      & info [ "stream" ]
          ~doc:
            "Streaming session: emit one JSON reply line per request as \
             it completes (JSONL, schema-tagged), with Busy/Draining/\
             Invalid answered on the wire; the summary goes to stderr. \
             Without it, replies are collected and printed as a batch.")
  in
  let window_arg =
    at_least_one "window"
      Arg.(
        value & opt int 32
        & info [ "window" ] ~docv:"N"
            ~doc:
              "Streaming backpressure window: at most N requests in \
               flight; the oldest settles before the next is admitted.")
  in
  let ledger_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "ledger" ] ~docv:"FILE"
          ~doc:
            "Append one hash-chained attestation entry per response to \
             FILE (verify offline with $(b,modchecker ledger verify)).")
  in
  let shards_arg =
    at_least_one "shards"
      Arg.(value & opt int 2 & info [ "shards" ] ~docv:"N"
           ~doc:"Dispatcher shards, each with its own worker pool.")
  in
  let queue_bound_arg =
    at_least_one "queue-bound"
      Arg.(value & opt int 64 & info [ "queue-bound" ] ~docv:"N"
           ~doc:"Admission bound on queued requests (backpressure).")
  in
  Cmd.v
    (Cmd.info "serve" ~doc)
    Term.(
      const run_serve $ observe_term ()
      $ target_term (pool_term ())
      $ requests_arg $ stream_arg $ window_arg $ ledger_arg $ shards_arg
      $ at_least_one "workers" workers_arg
      $ queue_bound_arg $ config_term () $ json_arg)

(* --- ledger -------------------------------------------------------------- *)

let run_ledger_verify path expect_head json =
  match Mc_ledger.verify_file ?expect_head path with
  | Ok s when json ->
      print_json
        (Json.Obj
           [
             ("entries", Json.Int s.sum_entries);
             ("head", Json.String s.sum_head);
             ( "verdicts",
               Json.Obj
                 (List.map (fun (k, n) -> (k, Json.Int n)) s.sum_verdicts) );
             ("root_changes", Json.Int s.sum_root_changes);
           ])
  | Ok s ->
      Printf.printf "ledger OK: %d entr%s, head %s\n" s.sum_entries
        (if s.sum_entries = 1 then "y" else "ies")
        s.sum_head;
      List.iter (fun (k, n) -> Printf.printf "  %-10s %d\n" k n) s.sum_verdicts;
      if s.sum_root_changes > 0 then
        Printf.printf "  root changes: %d\n" s.sum_root_changes
  | Error e ->
      die "ledger verification FAILED at entry %d: %s" e.ve_index e.ve_reason

let ledger_cmd =
  let doc = "Attestation-ledger operations (offline audit)." in
  let file_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE"
          ~doc:"Serialized ledger: one compact JSON entry per line.")
  in
  let expect_head_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "expect-head" ] ~docv:"HEX"
          ~doc:
            "Externally pinned head hash; a chain that verifies but ends \
             elsewhere (e.g. truncated) fails.")
  in
  let verify =
    let doc =
      "Re-derive the hash chain from genesis and report the first bad \
       entry, if any."
    in
    Cmd.v
      (Cmd.info "verify" ~doc)
      Term.(const run_ledger_verify $ file_arg $ expect_head_arg $ json_arg)
  in
  Cmd.group (Cmd.info "ledger" ~doc) [ verify ]

(* --- disasm --------------------------------------------------------------- *)

let run_disasm (pool, target) module_name func count =
  let vmi = guest_vmi (make_cloud pool) target.vm in
  let info, buf =
    match Searcher.fetch vmi ~name:module_name with
    | Some fetched -> fetched
    | None -> die "module not found: %s" module_name
  in
  let rva =
    match func with
    | None -> (
        match Mc_pe.Read.parse ~layout:Memory buf with
        | Ok image -> image.optional_header.address_of_entry_point
        | Error _ -> 0x1000)
    | Some name -> (
        let symbols = Mc_pe.Catalog.symbols (Mc_pe.Catalog.image module_name) in
        match List.assoc_opt name symbols with
        | Some rva -> rva
        | None -> die "unknown function: %s" name)
  in
  let base = info.Searcher.mi_base in
  Printf.printf "%s!%s in %s at 0x%08x:\n" module_name
    (Option.value ~default:"<entry>" func)
    (dom target.vm) (base + rva);
  print_string (Mc_pe.Codegen.listing ~base buf ~start:rva ~count)

let disasm_cmd =
  let doc = "Disassemble a function of a guest's in-memory module over VMI." in
  let func_arg =
    Arg.(value & opt (some string) None
         & info [ "f"; "function" ] ~docv:"NAME"
             ~doc:"Function name (from the module's symbols); defaults to \
                   the entry point.")
  in
  let count_arg =
    Arg.(value & opt int 12 & info [ "n" ] ~docv:"COUNT"
         ~doc:"Instructions to decode.")
  in
  Cmd.v
    (Cmd.info "disasm" ~doc)
    Term.(
      const run_disasm
      $ target_term ~infect:false (pool_term ~faults:false ())
      $ module_arg $ func_arg $ count_arg)

(* --- simtest ------------------------------------------------------------- *)

let run_simtest observe seed steps campaigns keep_going break_checker
    shrink_budget quorum federation require_coverage script transcript_out =
  observe @@ fun () ->
  let module Sim = Mc_simtest in
  let transcript_oc = Option.map (open_or_die open_out) transcript_out in
  (* Every mode ends alike: write the transcript, exit 0 iff [ok]. *)
  let finish transcript ok =
    Option.iter
      (fun oc ->
        output_string oc transcript;
        close_out oc)
      transcript_oc;
    exit (if ok then Exit_code.ok else Exit_code.error)
  in
  if federation then begin
    let r =
      Sim.Fedsim.run_campaigns ~keep_going ~shrink_budget ~seed ~steps
        ~campaigns ()
    in
    Printf.printf "%d federation campaign(s), %d sweep(s), %d failure(s)\n"
      r.fc_campaigns r.fc_sweeps (List.length r.fc_failures);
    List.iter
      (fun f -> print_endline (Sim.Fedsim.render_failure f))
      r.fc_failures;
    finish r.fc_transcript (r.fc_failures = [])
  end;
  match script with
  | Some path -> (
      (* Replay an explicit scenario (e.g. a shrunk failure) without the
         generator. *)
      let read p = In_channel.with_open_bin p In_channel.input_all in
      let src = open_or_die read path in
      let sc =
        match Sim.Event.scenario_of_script src with
        | Ok sc -> sc
        | Error e -> die "%s: %s" path e
      in
      let r = Sim.replay ~break_checker ?quorum sc in
      match r.r_failure with
      | None ->
          Printf.printf "replay ok: %d events applied, %d skipped\n" r.r_applied
            r.r_skipped;
          finish r.r_transcript true
      | Some f ->
          Printf.printf "replay FAILED at step %d: %s\n" f.f_step f.f_reason;
          finish r.r_transcript false)
  | None ->
      let required =
        match require_coverage with
        | None -> []
        | Some "all" -> Sim.Gen.weighted_classes
        | Some spec ->
            String.split_on_char ',' spec
            |> List.map String.trim
            |> List.filter (fun s -> s <> "")
      in
      let r =
        Sim.run_campaigns ~break_checker ~keep_going ~shrink_budget ?quorum
          ~require_coverage:required ~seed ~steps ~campaigns ()
      in
      Printf.printf
        "%d campaign(s), %d event(s) applied, %d skipped, %d failure(s)\n"
        r.cr_campaigns r.cr_applied r.cr_skipped
        (List.length r.cr_failures);
      if required <> [] then
        Printf.printf "coverage: %d/%d required class(es) fired\n"
          (List.length required - List.length r.cr_starved)
          (List.length required);
      if r.cr_starved <> [] then begin
        Printf.printf
          "STARVED generator class(es) — whole families went untested:\n";
        List.iter (fun k -> Printf.printf "  %s\n" k) r.cr_starved
      end;
      List.iter
        (fun cf -> print_string (Sim.render_failure cf))
        r.cr_failures;
      finish r.cr_transcript (r.cr_failures = [] && r.cr_starved = [])

let simtest_cmd =
  let doc =
    "Deterministic whole-system simulation testing: random scenarios \
     validated step-by-step against a ground-truth oracle."
  in
  let steps_arg =
    Arg.(value & opt int 50 & info [ "steps" ] ~docv:"K"
         ~doc:"Events per generated scenario.")
  in
  let campaigns_arg =
    Arg.(value & opt int 1 & info [ "campaign" ] ~docv:"M"
         ~doc:"Campaigns to run; campaign $(i,i) uses seed + $(i,i).")
  in
  let keep_going_arg =
    Arg.(value & flag & info [ "keep-going"; "soak" ]
         ~doc:"Soak mode: keep running after a failure instead of \
               stopping at the first one.")
  in
  let break_checker_arg =
    Arg.(value & flag & info [ "break-checker" ]
         ~doc:"Self-test: flip one byte of a cached digest mid-campaign; \
               the oracle must catch the now-lying checker.")
  in
  let shrink_budget_arg =
    Arg.(value & opt int 300 & info [ "shrink-budget" ] ~docv:"N"
         ~doc:"Candidate runs the shrinker may spend per failure \
               (0 disables shrinking).")
  in
  let sim_quorum_arg =
    Arg.(value & opt (some fraction) None & info [ "quorum" ] ~docv:"FRACTION"
         ~doc:"Override the orchestrator quorum under test.")
  in
  let script_arg =
    Arg.(value & opt (some string) None & info [ "script" ] ~docv:"FILE"
         ~doc:"Replay an explicit scenario script instead of generating \
               one (the shrinker prints failures in this format).")
  in
  let transcript_arg =
    Arg.(value & opt (some string) None & info [ "transcript" ] ~docv:"FILE"
         ~doc:"Write the deterministic run transcript to $(docv); two \
               runs with the same arguments produce identical files.")
  in
  let federation_arg =
    Arg.(value & flag & info [ "federation" ]
         ~doc:"Run federation campaigns instead: host outages, \
               coordinated whole-host infections, and version skew \
               against the fleet-level oracle (Fedsim).")
  in
  let require_coverage_arg =
    Arg.(value & opt (some string) None & info [ "require-coverage" ]
         ~docv:"CLASSES"
         ~doc:"Fail (exit 1) unless every named coverage class fired at \
               least once across the soak: 'all' for the generator's \
               whole universe, or a comma-separated list (e.g. \
               'evade.toctou,infect.hook'). A passing soak with a \
               starved generator proves nothing about the starved \
               family.")
  in
  (* Thousands of deliberate infections later, per-alarm warnings are
     noise; the transcript and the oracle's verdict are the output. *)
  Cmd.v
    (Cmd.info "simtest" ~doc)
    Term.(
      const run_simtest
      $ observe_term ~telemetry:false ~quiet:Logs.Error ()
      $ seed_arg $ steps_arg $ campaigns_arg
      $ keep_going_arg $ break_checker_arg $ shrink_budget_arg
      $ sim_quorum_arg $ federation_arg $ require_coverage_arg $ script_arg
      $ transcript_arg)

(* --- main --------------------------------------------------------------- *)

let () =
  let doc =
    "kernel module integrity checking across a pool of identical VMs \
     (reproduction of ModChecker, ICPP 2012)"
  in
  let info = Cmd.info "modchecker" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            check_cmd; survey_cmd; list_cmd; detect_cmd; figures_cmd;
            patrol_cmd; evade_cmd; health_cmd; federate_cmd; serve_cmd;
            ledger_cmd; disasm_cmd; simtest_cmd;
          ]))
