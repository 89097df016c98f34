(* Wall-clock benchmark of ModChecker's public entry points.

     perfbench.exe --workload serve-warm|oneshot-cold|patrol-dirty
                   --seed N --seconds S --trace 0|1 [--rev REV]
     perfbench.exe --self-test

   Each workload builds its inputs from the seed, measures for about S
   wall seconds (whole repetitions, at least one), checks every output,
   and prints one JSON object as its last line:
   {"correct", "attempted", "failed", "metrics": {name: value}}. The line
   before it records the host (core count, OCaml version, source
   revision) and the sample counts, so numbers from different hosts are
   never compared.

   --trace 0 reports the end-to-end metrics with the telemetry registry
   disabled; its wall times are scaled to a reference speed of the host
   (see "Host speed" below), and the raw ones are recorded on the line
   before the result. --trace 1 reports the per-layer metrics: the registry is
   switched on for alternate operations or sessions (the rest stay
   untraced, which gives the tracing overhead), its existing counters
   are read, and the public calls into each layer are timed from this
   file. Nothing is instrumented inside the library.

   Metrics are printed by name only; perfbench/run.py attaches the units
   from BENCHMARK.json, and a per-layer metric a workload does not print
   (its traced run never calls that layer) reads 0 there. *)

module Cloud = Mc_hypervisor.Cloud
module Costs = Mc_hypervisor.Costs
module Meter = Mc_hypervisor.Meter
module Tel = Mc_telemetry.Registry
module Orch = Modchecker.Orchestrator
module Patrol = Modchecker.Patrol
module Report = Modchecker.Report
module Infect = Mc_malware.Infect
module Traffic = Mc_simtest.Traffic
module Wire = Mc_engine.Wire
module Rng = Mc_util.Rng
module Json = Mc_util.Json

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Input seeds: the run's seed spread over numbered sub-streams, so the
   same --seed always gives the same clouds, requests and touches. *)
let sub seed i = Int64.add (Int64.mul (Int64.of_int seed) 1000L) (Int64.of_int i)

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)
(* ------------------------------------------------------------------ *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Nearest rank of percentile [p] among [n] samples (1-based). *)
let rank n p =
  max 1 (min n (int_of_float (Float.ceil (p /. 100.0 *. float_of_int n))))

let pct a p = if Array.length a = 0 then nan else a.(rank (Array.length a) p - 1)

let median xs = pct (sorted xs) 50.0

let mean xs =
  match xs with
  | [] -> 0.0
  | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let sum xs = List.fold_left ( +. ) 0.0 xs

let share a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(* The highest percentile with at least ten samples beyond it. *)
let tail_pct n =
  match
    List.find_opt (fun p -> n - rank n p >= 10) [ 99.9; 99.0; 95.0; 90.0; 75.0 ]
  with
  | Some p -> p
  | None -> 50.0

(* ------------------------------------------------------------------ *)
(* Results                                                             *)
(* ------------------------------------------------------------------ *)

type run_result = {
  attempted : int;
  failed : int;
  metrics : (string * float) list;
  info : (string * Json.t) list;
}

(* ------------------------------------------------------------------ *)
(* Host speed                                                          *)
(* ------------------------------------------------------------------ *)

(* A fixed computation that calls nothing in the program and allocates
   nothing: integer mixing over a 256 KiB buffer. Timed next to every
   operation, it measures how fast the host runs at that moment. *)
let ref_words = Bytes.init (256 * 1024) (fun i -> Char.chr ((i * 131) land 255))

let reference_work () =
  let h = ref 0 in
  for r = 0 to 2 do
    for i = 0 to (Bytes.length ref_words / 4) - 1 do
      let w = Int32.to_int (Bytes.get_int32_le ref_words (i * 4)) in
      h := ((!h lxor w) * 0x100000001b3 + r) land 0xffffffff
    done
  done;
  !h

(* Twice one core's L2 cache on the host this was written on. *)
let evict_buf = Bytes.create (4 * 1024 * 1024)

(* Times one [reference_work], outside any timed section. Its buffer is
   first pushed out to the shared cache, so the figure does not depend on
   how much memory the operation before it touched. *)
let reference_sample () =
  for i = 0 to (Bytes.length evict_buf / 64) - 1 do
    Bytes.unsafe_set evict_buf (i * 64) 'x'
  done;
  let t0 = now () in
  ignore (Sys.opaque_identity (reference_work ()));
  now () -. t0

(* About [reference_work]'s time next to an operation on the 2-core host
   this was written on: times are reported at that speed. *)
let reference_nominal_s = 0.6e-3

(* Operation k's time (or the reference's time next to it) is its best
   over the run's repetitions, sorted. *)
let best_per_op (reps : float array list) =
  let n = List.fold_left (fun n r -> min n (Array.length r)) max_int reps in
  let best =
    Array.init n (fun k -> List.fold_left (fun m r -> Float.min m r.(k)) infinity reps)
  in
  Array.sort Float.compare best;
  best

(* Timings of workloads whose repetitions all run the same operations in
   the same order (a pass, a session), with [reference_work] timed right
   after each operation. Two things make a wall time read differently
   from run to run of the same code on a shared host, and each has its
   own remedy:

   - other tenants' load comes and goes within seconds and only ever
     adds time, so an operation's time is its best over the run's
     repetitions, seconds apart;
   - the host's speed itself drifts for minutes at a time, which
     outlasts a run: on the host this was written on, the p50 of the
     same checks of the same seed read from 34 to 63 ms within an hour.
     So the figures are scaled to the reference's nominal speed:
     x [reference_nominal_s] / the mean of the reference's best times,
     taken next to the same operations at the same moments. Scaled, the
     same runs read within about 5% of each other.

   Returns the scaled figures, the scale, and the raw figures for the
   record. *)
let best_op_metrics ~(ops : float array list) ~(refs : float array list) =
  let best = best_per_op ops in
  let n = Array.length best in
  let scale =
    let r = best_per_op refs in
    reference_nominal_s /. (Array.fold_left ( +. ) 0.0 r /. float_of_int (Array.length r))
  in
  let tail = tail_pct n in
  let figures k =
    [
      ("ops_per_s", float_of_int n /. (k *. Array.fold_left ( +. ) 0.0 best));
      ("latency_p50_ms", 1e3 *. k *. pct best 50.0);
      ("latency_tail_ms", 1e3 *. k *. pct best tail);
    ]
  in
  ( figures scale,
    scale,
    [
      ("repetitions", Json.Int (List.length ops));
      ("operations", Json.Int n);
      ("latency_tail_percentile", Json.Float tail);
      ("host_scale", Json.Float scale);
      ("wall", Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) (figures 1.0)));
    ] )

(* Peak resident set of this process: VmHWM on Linux, else the major
   heap's high-water mark. *)
let peak_rss_mb () =
  let from_proc () =
    let ic = open_in "/proc/self/status" in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec scan () =
          match input_line ic with
          | line when String.starts_with ~prefix:"VmHWM:" line ->
              Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
          | _ -> scan ()
        in
        scan ())
  in
  try from_proc ()
  with Sys_error _ | End_of_file | Scanf.Scan_failure _ | Failure _ ->
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1048576.0

let common_metrics ~setup_s ~peak_rss_mb =
  [
    ("setup_s", setup_s);
    ("peak_rss_mb", peak_rss_mb);
  ]

(* Allocation and major GC work over a measured section. *)
type gc_acc = { mutable minor_words : float; mutable majors : int; mutable gc_ops : int }

let gc_acc () = { minor_words = 0.0; majors = 0; gc_ops = 0 }

(* Adds the GC work since [s0] (a [Gc.quick_stat]) to [acc]. *)
let gc_since acc ~ops (s0 : Gc.stat) =
  let s1 = Gc.quick_stat () in
  acc.minor_words <- acc.minor_words +. (s1.Gc.minor_words -. s0.Gc.minor_words);
  acc.majors <- acc.majors + (s1.Gc.major_collections - s0.Gc.major_collections);
  acc.gc_ops <- acc.gc_ops + ops

let with_gc acc ~ops f =
  let s0 = Gc.quick_stat () in
  let r = f () in
  gc_since acc ~ops s0;
  r

let gc_metrics acc =
  let per_op x = if acc.gc_ops = 0 then 0.0 else x /. float_of_int acc.gc_ops in
  [
    ( "gc.minor_mb_per_op",
      per_op (acc.minor_words *. float_of_int (Sys.word_size / 8) /. 1048576.0) );
    ("gc.major_collections", per_op (float_of_int acc.majors));
  ]

(* Between repetitions, outside any timed section: drop the previous
   repetition's cloud, so each one starts from the same small heap and
   the peak resident set is that of one repetition. *)
let settle () = Gc.compact ()

(* Runs [f 0], [f 1], ...: at least [min] repetitions, then another one
   only while it is expected, from the last one's duration, to end
   within [seconds] of the start. Also returns the peak resident set
   after the first repetition, which unlike the final peak does not grow
   with the number of repetitions a run had time for. *)
let repeat ~seconds ~min f =
  let deadline = now () +. seconds in
  let peak = ref nan in
  let rec go i last acc =
    if i >= min && now () +. last > deadline then List.rev acc
    else
      let r, dt = time (fun () -> f i) in
      if i = 0 then peak := peak_rss_mb ();
      go (i + 1) dt (r :: acc)
  in
  let reps = go 0 0.0 [] in
  (reps, !peak)

(* Telemetry counters read after a traced section. *)
let counters () = (Tel.snapshot ()).Tel.snap_counters

let counter cs name = Option.value ~default:0 (List.assoc_opt name cs)

let traced f =
  Tel.reset ();
  Tel.set_enabled true;
  let r = Fun.protect ~finally:(fun () -> Tel.set_enabled false) f in
  let cs = counters () in
  Tel.reset ();
  (r, cs)

(* Counter totals over the traced sections of a run. *)
let add_counters acc cs =
  List.fold_left
    (fun acc (k, v) ->
      let prev = Option.value ~default:0 (List.assoc_opt k acc) in
      (k, prev + v) :: List.remove_assoc k acc)
    acc cs

let cache_metrics cs =
  let hits = counter cs "digest_cache.hits" in
  let probes =
    hits + counter cs "digest_cache.misses" + counter cs "digest_cache.stale_partial"
  in
  [
    ("digest_cache.hit_share", share hits probes);
    ( "check.fast_path_share",
      share (counter cs "check.merkle_fast_path") (counter cs "check.modules_checked") );
  ]

let overhead_share ~traced_rate ~untraced_rate =
  if untraced_rate > 0.0 then 1.0 -. (traced_rate /. untraced_rate) else 0.0

(* MD5 throughput of the library's implementation and of stdlib Digest
   over the same buffers: every catalog module file. *)
let md5_metrics () =
  let files =
    List.map (fun m -> (Mc_pe.Catalog.image m).Mc_pe.Catalog.file)
      Mc_pe.Catalog.standard_modules
  in
  let bytes = List.fold_left (fun n b -> n + Bytes.length b) 0 files in
  let rate hash =
    let rec go rounds elapsed =
      if elapsed >= 0.25 then float_of_int (rounds * bytes) /. elapsed /. 1e6
      else
        let (), dt = time (fun () -> List.iter (fun b -> ignore (hash b)) files) in
        go (rounds + 1) (elapsed +. dt)
    in
    go 0 0.0
  in
  [
    ("md5.mb_per_s", rate Mc_md5.Md5.digest_bytes);
    ("md5.stdlib_mb_per_s", rate Digest.bytes);
  ]

(* ------------------------------------------------------------------ *)
(* oneshot-cold: the paper's setup, one sequential check per operation *)
(* ------------------------------------------------------------------ *)

let cold_vms = 15

let infected_module = "hal.dll"

let is_module a b = String.equal (String.lowercase_ascii a) (String.lowercase_ascii b)

(* Only the hooked VM's hal.dll may convict; every other check is intact. *)
let cold_gate ~hooked (vm, module_name) (r : (Orch.outcome, string) result) =
  match r with
  | Error _ -> false
  | Ok o -> (
      let want_infected = vm = hooked && is_module module_name infected_module in
      match o.Orch.report.Report.verdict with
      | Report.Infected -> want_infected
      | Report.Intact -> not want_infected
      | Report.Degraded _ -> false)

let cold_boot seed ~hooked =
  let cloud = Cloud.create ~vms:cold_vms ~cores:8 ~seed:(sub seed 1) () in
  (match Infect.inline_hook cloud ~vm:hooked with
  | Ok _ -> ()
  | Error e -> failwith ("oneshot-cold: staging the hook: " ^ e));
  cloud

(* One pass: every catalog module against every VM, in seeded order. *)
let cold_pass rng =
  let ops =
    Array.of_list
      (List.concat_map
         (fun m -> List.init cold_vms (fun vm -> (vm, m)))
         Mc_pe.Catalog.standard_modules)
  in
  for i = Array.length ops - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let t = ops.(i) in
    ops.(i) <- ops.(j);
    ops.(j) <- t
  done;
  ops

let cold_setups = 5

let check cloud (vm, module_name) =
  Orch.check_module cloud ~target_vm:vm ~module_name

let virtual_cpu_s (o : Orch.outcome) = sum (Orch.per_vm_seconds Costs.default o)

(* The check's own layers, called one by one from here: fetch and parse
   on the target and on every comparison VM, then Algorithm 2 against
   each. Returns per-layer seconds. *)
let cold_layers cloud (target_vm, module_name) =
  let fetch_s = ref 0.0 and parse_s = ref 0.0 and compare_s = ref 0.0 in
  let fetch vm =
    let dom = Cloud.vm cloud vm in
    let profile =
      Mc_vmi.Symbols.of_variant
        (Mc_winkernel.Kernel.os_variant (Mc_hypervisor.Dom.kernel_exn dom))
    in
    let vmi = Mc_vmi.Vmi.init dom profile in
    let r, dt = time (fun () -> Modchecker.Searcher.fetch vmi ~name:module_name) in
    fetch_s := !fetch_s +. dt;
    match r with
    | None -> failwith "oneshot-cold: module vanished"
    | Some (info, buf) -> (
        let arts, dt = time (fun () -> Modchecker.Parser.artifacts buf) in
        parse_s := !parse_s +. dt;
        match arts with
        | Ok a -> (info.Modchecker.Searcher.mi_base, a)
        | Error e -> failwith ("oneshot-cold: parse: " ^ e))
  in
  let base1, arts1 = fetch target_vm in
  List.iter
    (fun vm ->
      if vm <> target_vm then begin
        let base2, arts2 = fetch vm in
        let _, dt =
          time (fun () -> Modchecker.Checker.compare_pair ~base1 arts1 ~base2 arts2)
        in
        compare_s := !compare_s +. dt
      end)
    (List.init (Cloud.vm_count cloud) Fun.id);
  (!fetch_s, !parse_s, !compare_s)

let oneshot_cold ~seed ~seconds ~trace =
  let rng = Rng.create (sub seed 0) in
  let hooked = Rng.int rng cold_vms in
  (* Boot [cold_setups] times for a steady set-up figure, keeping only
     the last cloud. *)
  let cloud = ref None in
  let setups =
    List.init cold_setups (fun _ ->
        cloud := None;
        settle ();
        let c, dt = time (fun () -> cold_boot seed ~hooked) in
        cloud := Some c;
        dt)
  in
  let cloud = Option.get !cloud in
  settle ();
  let setup_s = median setups in
  let pass = cold_pass rng in
  let attempted = ref 0 and failed = ref 0 in
  let gated op r =
    incr attempted;
    if not (cold_gate ~hooked op r) then incr failed
  in
  let lat = ref [] and vcpu = ref 0.0 in
  let gc = gc_acc () and pages = ref 0 and hashed = ref 0 in
  (* Traced run only: each operation is checked again with the registry
     on, and its layers are then called one by one. *)
  let traced_lat = ref [] and cs = ref [] and layers = ref [] in
  let run_pass p =
    let pass_lat = ref [] and pass_ref = ref [] in
    Array.iter
      (fun op ->
        let r, dt = with_gc gc ~ops:1 (fun () -> time (fun () -> check cloud op)) in
        gated op r;
        pass_lat := dt :: !pass_lat;
        if not trace then pass_ref := reference_sample () :: !pass_ref;
        (match r with
        | Ok o ->
            if p = 0 then vcpu := !vcpu +. virtual_cpu_s o;
            List.iter
              (fun (w : Orch.vm_work) ->
                List.iter
                  (fun ph ->
                    let c = Meter.get w.Orch.work_meter ph in
                    pages := !pages + c.Meter.pages_mapped;
                    if ph = Meter.Checker then hashed := !hashed + c.Meter.bytes_hashed)
                  [ Meter.Searcher; Meter.Parser; Meter.Checker ])
              o.Orch.work
        | Error _ -> ());
        if trace then begin
          let (r, dt), c = traced (fun () -> time (fun () -> check cloud op)) in
          gated op r;
          cs := add_counters !cs c;
          traced_lat := dt :: !traced_lat;
          layers := cold_layers cloud op :: !layers
        end)
      pass;
    lat := !pass_lat @ !lat;
    (Array.of_list (List.rev !pass_lat), Array.of_list (List.rev !pass_ref))
  in
  let reps, peak_rss_mb = repeat ~seconds ~min:1 run_pass in
  let ops = List.length !lat in
  let info = [ ("hooked_vm", Json.Int hooked) ] in
  if not trace then
    let lm, scale, li =
      best_op_metrics ~ops:(List.map fst reps) ~refs:(List.map snd reps)
    in
    {
      attempted = !attempted;
      failed = !failed;
      metrics =
        lm
        @ [ ("virtual_cpu_s", !vcpu) ]
        @ common_metrics ~setup_s:(scale *. setup_s) ~peak_rss_mb;
      info = info @ li @ [ ("wall_setup_s", Json.Float setup_s) ];
    }
  else
    let ms f = 1e3 *. mean (List.map f !layers) in
    let fetch_ms = ms (fun (f, _, _) -> f)
    and parse_ms = ms (fun (_, p, _) -> p)
    and compare_ms = ms (fun (_, _, c) -> c) in
    {
      attempted = !attempted;
      failed = !failed;
      metrics =
        (md5_metrics ()
          @ [
              ( "merkle.leaves_rehashed",
                share (counter !cs "merkle.leaves_rehashed") ops );
              ("searcher.fetch_ms", fetch_ms);
              ("vmi.pages_mapped", share !pages ops);
              ("parser.artifacts_ms", parse_ms);
              ("checker.compare_pair_ms", compare_ms);
              ("checker.bytes_hashed", share !hashed ops);
              ( "orchestrator.self_ms",
                (1e3 *. mean !lat) -. fetch_ms -. parse_ms -. compare_ms);
              ( "tracing.overhead_share",
                overhead_share
                  ~traced_rate:(float_of_int ops /. sum !traced_lat)
                  ~untraced_rate:(float_of_int ops /. sum !lat));
            ]
          @ cache_metrics !cs @ gc_metrics gc);
      info;
    }

(* ------------------------------------------------------------------ *)
(* serve-warm: Traffic.replay through the serving stack                *)
(* ------------------------------------------------------------------ *)

(* Requests per replay, and how many replies warm the caches before the
   steady phase starts. *)
let sw_requests = 2000

let sw_warm = 500

(* A clean pool: no reply may contradict the oracle, every request gets
   a reply that reaches the ledger, and the session exits [expect_exit]. *)
let serve_gate ~expect_exit ~ledger_entries (o : Traffic.outcome) =
  let bad =
    List.length o.Traffic.to_violations
    + (o.Traffic.to_requests - o.Traffic.to_responses)
    + o.Traffic.to_invalid
    + abs (ledger_entries - o.Traffic.to_responses)
  in
  if o.Traffic.to_exit <> expect_exit then max bad 1 else bad

type replay = {
  rp_outcome : Traffic.outcome;
  rp_failed : int;
  rp_setup_s : float;  (** Replay start to the [sw_warm]th reply. *)
  rp_steady_s : float;
  rp_steady_n : int;
  rp_sojourn_s : float list;  (** Engine wait + service, steady replies. *)
  rp_refs_s : float list;  (** [reference_sample]s during the steady phase. *)
  rp_replies : Wire.resp list;  (** Every reply, when captured. *)
  rp_counters : (string * int) list;  (** Steady phase, when traced. *)
}

(* Steady replies between two [reference_sample]s, when a replay takes
   them. The samples run on the session's own domain, between replies,
   and take about 2% of its time; the shards go on serving meanwhile. *)
let sw_reference_every = 25

(* Every replay of a run replays the same requests, from [seed]. *)
let serve_replay ?(shards = 2) ?(capture = false) ?(trace = false) ?(reference = false) ?gc
    seed =
  let n = ref 0 and gc0 = ref None in
  let t_warm = ref nan and t_last = ref nan in
  let sojourn = ref [] and replies = ref [] and refs = ref [] in
  let emit = function
    | Wire.Resp r ->
        incr n;
        let t = now () in
        if !n = sw_warm then begin
          t_warm := t;
          gc0 := Some (Gc.quick_stat ());
          if trace then begin
            Tel.reset ();
            Tel.set_enabled true
          end
        end
        else if !n > sw_warm then begin
          t_last := t;
          sojourn := (r.Wire.rs_wait_s +. r.Wire.rs_service_s) :: !sojourn;
          if reference && (!n - sw_warm) mod sw_reference_every = 0 then
            refs := reference_sample () :: !refs
        end;
        if capture then replies := r :: !replies
    | Wire.Busy _ | Wire.Draining _ | Wire.Invalid _ -> ()
  in
  let ledger = Mc_ledger.create ~sink:ignore () in
  let t0 = now () in
  let o =
    Fun.protect
      ~finally:(fun () -> Tel.set_enabled false)
      (fun () ->
        Traffic.replay ~shards ~ledger ~emit ~seed:(sub seed 0) ~requests:sw_requests ())
  in
  let steady_n = max 0 (!n - sw_warm) in
  (match (gc, !gc0) with
  | Some acc, Some s0 -> gc_since acc ~ops:steady_n s0
  | _ -> ());
  let cs = if trace then counters () else [] in
  if trace then Tel.reset ();
  {
    rp_outcome = o;
    rp_failed =
      serve_gate ~expect_exit:0 ~ledger_entries:(Mc_ledger.length ledger) o;
    rp_setup_s = !t_warm -. t0;
    rp_steady_s = !t_last -. !t_warm;
    rp_steady_n = steady_n;
    rp_sojourn_s = !sojourn;
    rp_refs_s = !refs;
    rp_replies = List.rev !replies;
    rp_counters = cs;
  }

let steady_rate rps =
  float_of_int (List.fold_left (fun n r -> n + r.rp_steady_n) 0 rps)
  /. sum (List.map (fun r -> r.rp_steady_s) rps)

(* Replies interleave across shards and coalesce by timing, so a
   replay's requests are not the same operations from one replay to the
   next, and [best_op_metrics] does not apply as such. Instead each
   replay's figures are scaled to the reference speed by the median of
   the [reference_sample]s taken during it, and each figure is the best
   over the run's replays, for the reasons given at [best_op_metrics].
   Returns the scaled figures and, for the record, the raw ones. *)
let replay_scale r = reference_nominal_s /. median r.rp_refs_s

let best_replay_metrics rps =
  let tail = tail_pct (List.fold_left (fun n r -> min n r.rp_steady_n) max_int rps) in
  let figures scale =
    let best f = List.fold_left (fun m r -> Float.min m (f r)) infinity rps in
    let at p r = scale r *. pct (sorted r.rp_sojourn_s) p in
    [
      ("ops_per_s", -.best (fun r -> -.steady_rate [ r ] /. scale r));
      ("latency_p50_ms", 1e3 *. best (at 50.0));
      ("latency_tail_ms", 1e3 *. best (at tail));
      ("setup_s", median (List.map (fun r -> scale r *. r.rp_setup_s) rps));
    ]
  in
  ( figures replay_scale,
    [
      ("repetitions", Json.Int (List.length rps));
      ("latency_samples", Json.Int (List.fold_left (fun n r -> n + r.rp_steady_n) 0 rps));
      ("latency_tail_percentile", Json.Float tail);
      ("host_scale", Json.List (List.map (fun r -> Json.Float (replay_scale r)) rps));
      ( "wall",
        Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) (figures (fun _ -> 1.0))) );
    ] )

(* Wire and ledger costs of one replay, replayed from here over its
   request lines and captured replies. Microseconds per call. *)
let wire_ledger_us seed (replies : Wire.resp list) =
  let lines =
    let next = Traffic.lines ~seed:(Int64.add (sub seed 0) 1L) ~n:sw_requests () in
    let rec collect acc =
      match next () with Some l -> collect (l :: acc) | None -> List.rev acc
    in
    collect []
  in
  let per_call n dt = if n = 0 then 0.0 else dt *. 1e6 /. float_of_int n in
  let (), parse_s =
    time (fun () -> List.iter (fun l -> ignore (Wire.parse_line l)) lines)
  in
  let bodies, encode_s =
    time (fun () ->
        List.map (fun r -> Json.to_string (Wire.reply_to_json (Wire.Resp r))) replies)
  in
  let ledger = Mc_ledger.create ~sink:ignore () in
  let (), append_s =
    time (fun () ->
        List.iter2
          (fun (r : Wire.resp) body ->
            let surveyed, responded = Wire.vote_counts r in
            ignore
              (Mc_ledger.append ledger ~key:(Wire.frame_key r.Wire.rs_frame)
                 ~verdict:(Wire.verdict_key r) ~surveyed ~responded
                 ?root:r.Wire.rs_root ~meter:r.Wire.rs_meter ~body ()))
          replies bodies)
  in
  let n = List.length replies in
  ( per_call (List.length lines) parse_s,
    per_call n encode_s,
    per_call n append_s )

let serve_warm ~seed ~seconds ~trace =
  let gc = gc_acc () in
  (* The traced run cycles three replays: untraced at 2 shards (the
     workload itself), traced at 2 shards, untraced at 1 shard. *)
  let plan i =
    if not trace then `Untraced 2
    else match i mod 3 with 0 -> `Untraced 2 | 1 -> `Traced | _ -> `Untraced 1
  in
  let runs, peak_rss_mb =
    repeat ~seconds ~min:3 (fun i ->
        let kind = plan i in
        settle ();
        let r =
          match kind with
          | `Untraced shards -> serve_replay ~shards ~reference:(not trace) ~gc seed
          | `Traced -> serve_replay ~capture:true ~trace:true seed
        in
        (kind, r))
  in
  let all = List.map snd runs in
  let attempted =
    List.fold_left (fun n r -> n + r.rp_outcome.Traffic.to_requests) 0 all
  in
  let failed = List.fold_left (fun n r -> n + r.rp_failed) 0 all in
  let pick k =
    List.filter_map (fun (kind, r) -> if kind = k then Some r else None) runs
  in
  let main = pick (`Untraced 2) in
  let info = [ ("replays", Json.Int (List.length all)) ] in
  if not trace then
    let lm, li = best_replay_metrics main in
    {
      attempted;
      failed;
      metrics =
        lm
        @ [
            ( "virtual_cpu_s",
              median (List.map (fun r -> r.rp_outcome.Traffic.to_total_virtual_s) main) );
            ("peak_rss_mb", peak_rss_mb);
          ];
      info = info @ li;
    }
  else
    let tr = pick `Traced in
    let cs = List.fold_left (fun acc r -> add_counters acc r.rp_counters) [] tr in
    let steady_replies r =
      List.filteri (fun k _ -> k >= sw_warm) r.rp_replies
    in
    let replies = List.concat_map steady_replies tr in
    let n_steady = List.length replies in
    let meter name =
      share
        (List.fold_left
           (fun n (r : Wire.resp) ->
             n + Option.value ~default:0 (List.assoc_opt name r.Wire.rs_meter))
           0 replies)
        n_steady
    in
    let wire =
      List.map (fun r -> wire_ledger_us seed r.rp_replies) tr
    in
    let outcomes f = mean (List.map (fun r -> f r.rp_outcome) tr) in
    let reply_median f = median (List.map (fun (r : Wire.resp) -> f r) replies) in
    {
      attempted;
      failed;
      metrics =
        (md5_metrics ()
          @ [
              ( "merkle.leaves_rehashed",
                share (counter cs "merkle.leaves_rehashed") n_steady );
              ( "vmi.pages_mapped",
                meter "searcher.pages_mapped" +. meter "parser.pages_mapped"
                +. meter "checker.pages_mapped");
              ("checker.bytes_hashed", meter "checker.bytes_hashed");
              ("engine.wait_ms_p50", 1e3 *. reply_median (fun r -> r.Wire.rs_wait_s));
              ( "engine.service_ms_p50",
                1e3 *. reply_median (fun r -> r.Wire.rs_service_s) );
              ( "engine.coalesced_share",
                outcomes (fun o ->
                    share o.Traffic.to_coalesced o.Traffic.to_requests));
              ("engine.virtual_cpu_s", outcomes (fun o -> o.Traffic.to_critical_s));
              ("wire.parse_us", mean (List.map (fun (p, _, _) -> p) wire));
              ("wire.encode_us", mean (List.map (fun (_, e, _) -> e) wire));
              ("ledger.append_us", mean (List.map (fun (_, _, a) -> a) wire));
              ("serve.busy_replies", outcomes (fun o -> float_of_int o.Traffic.to_busy));
              ("serve.rps_1_shard", steady_rate (pick (`Untraced 1)));
              ("serve.rps_2_shards", steady_rate main);
              ( "tracing.overhead_share",
                overhead_share ~traced_rate:(steady_rate tr)
                  ~untraced_rate:(steady_rate main));
            ]
          @ cache_metrics cs @ gc_metrics gc);
      info = info @ [ ("traced_replays", Json.Int (List.length tr)) ];
    }

(* ------------------------------------------------------------------ *)
(* patrol-dirty: write traps reacting to a stream of benign touches    *)
(* ------------------------------------------------------------------ *)

let pd_vms = 8

let pd_touches = 600

(* Virtual seconds between events: longer than one reaction, and the
   whole stream stays inside the patrol's first safety-sweep period, so
   every gap between events is one trap reaction. *)
let pd_spacing_s = 0.05

let integrity_alarm (a : Patrol.alarm) =
  match a.Patrol.kind with
  | Patrol.Hash_deviation | Patrol.Missing_module | Patrol.Anchor_mismatch -> true
  | Patrol.List_discrepancy | Patrol.Quorum_loss -> false

(* No alarm before the plant, and the first integrity alarm names
   exactly the hooked VM and hal.dll. *)
let patrol_gate ~hooked ~plant_at (o : Patrol.outcome) =
  List.for_all (fun (a : Patrol.alarm) -> a.Patrol.at >= plant_at) o.Patrol.alarms
  && o.Patrol.latencies_s <> []
  &&
  match List.find_opt integrity_alarm o.Patrol.alarms with
  | Some a ->
      is_module a.Patrol.alarm_module infected_module
      && a.Patrol.alarm_vms = [ hooked ]
  | None -> false

type session = {
  ss_outcome : Patrol.outcome;
  ss_hooked : int;
  ss_plant_at : float;  (** Virtual time the hook lands. *)
  ss_events : int;
  ss_failed : int;
  ss_setup_s : float;  (** Cloud boot, baseline sweep and arming. *)
  ss_phase_s : float;  (** First event to the end of the last reaction. *)
  ss_gaps_s : float list;
      (** Wall time of each touch reaction: from one event callback
          returning to the next one starting. The hook's own reaction is
          left out; [ttd_virtual_s] reports it. *)
  ss_refs_s : float list;  (** [reference_sample] after each gap. *)
  ss_counters : (string * int) list;
}

(* Every session of a run has the same inputs: the cloud, the touches and
   the hook all come from [seed]. With [reference], [reference_sample]
   runs after each gap, outside it. *)
let patrol_session ?(trace = false) ?(reference = false) ?gc ~touches seed =
  let gc0 = ref None in
  let rng = Rng.create (sub seed 0) in
  let hooked = Rng.int rng pd_vms in
  let modules = Array.of_list Mc_pe.Catalog.standard_modules in
  let picks = Array.init (touches + 1) (fun _ -> Rng.pick rng modules) in
  let beside_vm = Rng.int rng pd_vms in
  let errors = ref 0 in
  let last_end = ref nan and first_start = ref nan and gaps = ref [] in
  let refs = ref [] in
  let mark_start () =
    let t = now () in
    if Float.is_nan !last_end then begin
      first_start := t;
      gc0 := Some (Gc.quick_stat ());
      if trace then begin
        Tel.reset ();
        Tel.set_enabled true
      end
    end
    else begin
      gaps := (t -. !last_end) :: !gaps;
      if reference then refs := reference_sample () :: !refs
    end
  in
  let at k = 1.0 +. (float_of_int k *. pd_spacing_s) in
  let event k f =
    ( at k,
      fun cloud ->
        mark_start ();
        (match f cloud with Ok _ -> () | Error _ -> incr errors);
        last_end := now () )
  in
  (* The hook is the last event: every earlier reaction is to a benign
     touch, and must raise nothing. It lands together with one more
     touch, so the reaction that detects it also rechecks whatever else
     was written at that moment. *)
  let events =
    List.init (touches + 1) (fun k ->
        if k = touches then
          event k (fun c ->
              Result.bind
                (Infect.benign_touch ~module_name:picks.(k) ~pages:2 c ~vm:beside_vm)
                (fun _ -> Result.map ignore (Infect.inline_hook c ~vm:hooked)))
        else
          event k (fun c ->
              Result.map ignore
                (Infect.benign_touch ~module_name:picks.(k) ~pages:2 c
                   ~vm:(k mod pd_vms))))
  in
  let t0 = now () in
  let o =
    Fun.protect
      ~finally:(fun () -> Tel.set_enabled false)
      (fun () ->
        let cloud = Cloud.create ~vms:pd_vms ~cores:8 ~seed:(sub seed 500) () in
        Patrol.run_events cloud ~until:(at touches +. 1.0) ~events)
  in
  let t_end = now () in
  (match (gc, !gc0) with
  | Some acc, Some s0 -> gc_since acc ~ops:(touches + 1) s0
  | _ -> ());
  let cs = if trace then counters () else [] in
  if trace then Tel.reset ();
  let plant_at = at touches in
  {
    ss_outcome = o;
    ss_hooked = hooked;
    ss_plant_at = plant_at;
    ss_events = touches + 1;
    ss_failed = !errors + (if patrol_gate ~hooked ~plant_at o then 0 else 1);
    ss_setup_s = !first_start -. t0;
    ss_phase_s = t_end -. !first_start;
    ss_gaps_s = !gaps;
    ss_refs_s = !refs;
    ss_counters = cs;
  }

let patrol_dirty ~seed ~seconds ~trace =
  let gc = gc_acc () in
  let runs, peak_rss_mb =
    repeat ~seconds ~min:(if trace then 2 else 1) (fun i ->
        let traced_session = trace && i mod 2 = 1 in
        settle ();
        ( traced_session,
          if traced_session then patrol_session ~trace:true ~touches:pd_touches seed
          else patrol_session ~reference:(not trace) ~gc ~touches:pd_touches seed ))
  in
  let all = List.map snd runs in
  let attempted = List.fold_left (fun n s -> n + s.ss_events) 0 all in
  let failed = List.fold_left (fun n s -> n + s.ss_failed) 0 all in
  let plain = List.filter_map (fun (t, s) -> if t then None else Some s) runs in
  let tr = List.filter_map (fun (t, s) -> if t then Some s else None) runs in
  let rate ss =
    float_of_int (List.fold_left (fun n s -> n + s.ss_events) 0 ss)
    /. sum (List.map (fun s -> s.ss_phase_s) ss)
  in
  let first = (List.hd all).ss_outcome in
  let info = [ ("sessions", Json.Int (List.length all)) ] in
  if not trace then
    let setup_s = median (List.map (fun s -> s.ss_setup_s) plain) in
    let in_order l = Array.of_list (List.rev l) in
    let lm, scale, li =
      best_op_metrics
        ~ops:(List.map (fun s -> in_order s.ss_gaps_s) plain)
        ~refs:(List.map (fun s -> in_order s.ss_refs_s) plain)
    in
    {
      attempted;
      failed;
      metrics =
        lm
        @ [ ("virtual_cpu_s", first.Patrol.cpu_spent) ]
        @ common_metrics ~peak_rss_mb
            ~setup_s:(scale *. setup_s);
      info = info @ li @ [ ("wall_setup_s", Json.Float setup_s) ];
    }
  else
    let cs = List.fold_left (fun acc s -> add_counters acc s.ss_counters) [] tr in
    let n_tr = List.fold_left (fun n s -> n + s.ss_events) 0 tr in
    {
      attempted;
      failed;
      metrics =
        (md5_metrics ()
          @ [
              ( "merkle.leaves_rehashed",
                share (counter cs "merkle.leaves_rehashed") n_tr );
              ("vmi.pages_mapped", share (counter cs "vmi.pages_mapped") n_tr);
              ( "ttd_virtual_s",
                (match first.Patrol.latencies_s with l :: _ -> l | [] -> nan));
              ( "tracing.overhead_share",
                overhead_share ~traced_rate:(rate tr) ~untraced_rate:(rate plain));
            ]
          @ cache_metrics cs @ gc_metrics gc);
      info = info @ [ ("traced_sessions", Json.Int (List.length tr)) ];
    }

(* ------------------------------------------------------------------ *)
(* Self-test: every correctness gate rejects a planted wrong expectation *)
(* ------------------------------------------------------------------ *)

let self_test () =
  let results = ref [] in
  let expect name ok = results := (name, ok) :: !results in
  (* serve-warm: a clean replay passes its gate, and fails it when the
     gate expects the exit code of a detection. *)
  let ledger = Mc_ledger.create ~sink:ignore () in
  let o = Traffic.replay ~ledger ~seed:7L ~requests:120 () in
  let ledger_entries = Mc_ledger.length ledger in
  expect "serve gate accepts a clean replay"
    (serve_gate ~expect_exit:0 ~ledger_entries o = 0);
  expect "serve gate rejects a wrong exit code"
    (serve_gate ~expect_exit:2 ~ledger_entries o > 0);
  expect "serve gate rejects a lost ledger entry"
    (serve_gate ~expect_exit:0 ~ledger_entries:(ledger_entries - 1) o > 0);
  (* oneshot-cold: the hooked VM's hal.dll convicts, a clean one does not;
     naming the wrong VM as hooked must fail both. *)
  let cloud = cold_boot 7 ~hooked:3 in
  let hooked_op = (3, infected_module) and clean_op = (5, infected_module) in
  let r_hooked = check cloud hooked_op and r_clean = check cloud clean_op in
  expect "oneshot gate accepts the hooked check" (cold_gate ~hooked:3 hooked_op r_hooked);
  expect "oneshot gate accepts a clean check" (cold_gate ~hooked:3 clean_op r_clean);
  expect "oneshot gate rejects a wrong hooked VM (hooked check)"
    (not (cold_gate ~hooked:5 hooked_op r_hooked));
  expect "oneshot gate rejects a wrong hooked VM (clean check)"
    (not (cold_gate ~hooked:5 clean_op r_clean));
  (* patrol-dirty: a short session passes; a wrong hooked VM, or a plant
     time after the real one (so the alarm looks premature), fails. *)
  let ss = patrol_session ~touches:20 7 in
  let o = ss.ss_outcome in
  expect "patrol gate accepts a correct session" (ss.ss_failed = 0);
  expect "patrol gate rejects a wrong hooked VM"
    (not
       (patrol_gate ~hooked:((ss.ss_hooked + 1) mod pd_vms) ~plant_at:ss.ss_plant_at o));
  expect "patrol gate rejects an alarm before the plant"
    (not (patrol_gate ~hooked:ss.ss_hooked ~plant_at:1e9 o));
  let results = List.rev !results in
  List.iter
    (fun (name, ok) -> Printf.printf "%s: %s\n" (if ok then "ok  " else "FAIL") name)
    results;
  if List.for_all snd results then exit 0 else exit 1

(* ------------------------------------------------------------------ *)
(* Entry point                                                          *)
(* ------------------------------------------------------------------ *)

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let print_result ~workload ~seed ~trace ~rev r =
  let host =
    Json.Obj
      ([
         ("workload", Json.String workload);
         ("seed", Json.Int seed);
         ("trace", Json.Bool trace);
         ("cores", Json.Int (Domain.recommended_domain_count ()));
         ("ocaml", Json.String Sys.ocaml_version);
         ("rev", Json.String rev);
       ]
      @ r.info)
  in
  print_endline (Json.to_string (Json.Obj [ ("perfbench", host) ]));
  let correct =
    r.failed = 0 && r.attempted > 0
    && List.for_all (fun (_, v) -> Float.is_finite v) r.metrics
  in
  let metrics =
    String.concat ", "
      (List.map
         (fun (name, v) -> Printf.sprintf "%S: %s" name (json_number v))
         r.metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct r.attempted r.failed metrics

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref 0 and rev = ref "unknown" and self = ref false in
  Arg.parse
    [
      ( "--workload",
        Arg.Set_string workload,
        " serve-warm | oneshot-cold | patrol-dirty" );
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_float seconds, " wall seconds to measure");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics, 1: per-layer metrics");
      ("--rev", Arg.Set_string rev, " source revision recorded with the result");
      ( "--self-test",
        Arg.Set self,
        " check that every correctness gate rejects a wrong expectation" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench.exe --workload W --seed N --seconds S --trace 0|1";
  if !self then self_test ();
  let run =
    match !workload with
    | "serve-warm" -> serve_warm
    | "oneshot-cold" -> oneshot_cold
    | "patrol-dirty" -> patrol_dirty
    | w ->
        prerr_endline ("perfbench: unknown workload " ^ w);
        exit 2
  in
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "perfbench: --trace takes 0 or 1";
    exit 2
  end;
  Tel.set_enabled false;
  let r = run ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) in
  print_result ~workload:!workload ~seed:!seed ~trace:(!trace = 1) ~rev:!rev r
