(** The patrol service: ModChecker as a continuously running cloud
    monitor.

    The paper positions ModChecker as an "initial light-weight consistency
    check" that triggers deeper analysis. This module operationalizes
    that: it sweeps a set of modules across the pool on the simulated
    cloud clock, raising alarms for hash deviations, missing modules, and
    module-list discrepancies, and accounting both the CPU it burned and
    the wall time each sweep cost under the current guest load. The
    interval/time-to-detect trade-off it exposes is measured by the bench
    harness.

    The sweep loop is separable from the checking work: {!run} performs
    the surveys itself, while {!run_driven} accepts a {!driver} that
    produces each sweep's results — that is how [Mc_engine] turns patrol
    sweeps into just another request class on its shared queue. *)

type alarm_kind =
  | Hash_deviation  (** A VM's copy fails the majority vote. *)
  | Missing_module  (** A watched module is absent from a VM. *)
  | List_discrepancy  (** Module-list comparison found a hidden module. *)
  | Quorum_loss
      (** Too few VMs answered the sweep for its vote to mean anything
          (or the list walk lost VMs to faults). An availability alarm,
          deliberately distinct from every integrity alarm: a sweep that
          degrades raises this and {e only} this for the affected module,
          so fault bursts can never masquerade as infections. *)
  | Anchor_mismatch
      (** The two Dom0 read channels disagree over a cached watch
          footprint page: the foreign mapping (which an in-guest,
          SEVurity-style adversary can interpose on) returned different
          bytes than the hypervisor's own physical read path. Evidence
          the {e checker's view} is being tampered with — raised only by
          sweeps run with [audit_anchors]. *)

type alarm = {
  at : float;  (** Virtual time the sweep that saw it completed. *)
  alarm_module : string;
  alarm_vms : int list;
  kind : alarm_kind;
}

type config = {
  watch : string list;  (** Modules checked each sweep. *)
  interval_s : float;  (** Idle time between sweep starts (minimum). *)
  costs : Mc_hypervisor.Costs.t;
  workers : int;  (** Dom0 vCPUs driving the sweep. *)
  compare_lists : bool;  (** Also run the DKOM list comparison. *)
  incremental : bool;
      (** Keep log-dirty tracking armed on every guest and memoize per-VM
          fingerprints across sweeps: a steady-state sweep prices as
          staleness probes plus re-checks of only the VMs whose relevant
          pages were written. Detection verdicts are unchanged. *)
  audit_anchors : bool;
      (** Each sweep additionally cross-checks the foreign-mapping read
          channel against the hypervisor's physical read path over every
          cached watch footprint page, raising [Anchor_mismatch] on any
          disagreement ({!Orchestrator.audit_anchors}). Requires
          [incremental] (the footprints live in its caches); without it
          the audit has nothing to vouch for and is skipped. *)
  check : Orchestrator.Config.t;
      (** How each survey runs: strategy, quorum, deadline. The [mode]
          and [incremental] fields are overridden by the patrol itself
          (from [workers] and [incremental] above) for the default
          {!run} driver. *)
}

val default_config : config
(** Watches the standard catalog, 30 s interval, one worker, list
    comparison on, non-incremental, {!Orchestrator.Config.default}
    checking. *)

type outcome = {
  alarms : alarm list;  (** In raising order; duplicates across sweeps kept. *)
  sweeps : int;  (** Full sweeps (every sweep, for the polling runners). *)
  reactions : int;
      (** Trap-triggered targeted checks ({!run_events} runners only;
          0 for the polling runners). *)
  virtual_elapsed : float;  (** Clock at the end of the run. *)
  cpu_spent : float;  (** Dom0 CPU-seconds consumed by checking. *)
  mean_sweep_wall : float;  (** Over sweeps and reactions alike. *)
  sweep_cpus : float list;
      (** Per-full-sweep CPU-seconds, in sweep order — the
          first/steady-state split the incremental experiments read.
          Reaction costs are in [cpu_spent] but not listed here. *)
  latencies_s : float list;
      (** Trap-to-alarm detection latencies, one per integrity alarm
          whose trap time is known, in raising order (event-driven
          runners only). *)
}

type sweep_work = {
  sw_surveys : (string * Report.survey * Mc_hypervisor.Meter.t) list;
      (** One entry per watched module: its survey and the meter that
          priced it (each meter is one schedulable job). *)
  sw_lists : (Orchestrator.list_comparison * Mc_hypervisor.Meter.t) option;
      (** The DKOM list comparison, when the sweep ran one. *)
  sw_anchors : (string * int) list;
      (** Sorted [(module, vm)] pairs where the read-channel audit found
          the foreign mapping lying about a footprint page ([[]] when
          the audit did not run or found nothing); each becomes an
          [Anchor_mismatch] alarm. *)
  sw_overhead : Mc_hypervisor.Meter.t option;
      (** Maintenance work outside any survey (e.g. log-dirty arm and
          dirty-bitmap drain), priced into the sweep like a job. *)
}
(** Everything one sweep observed and what it cost — the interface
    between the sweep loop and whoever performs the checking. *)

type driver = unit -> sweep_work
(** Called once per sweep, on the sweep loop's domain; performs (or
    delegates) the sweep's checking work. *)

val alarms_of_work : config -> sweep_work -> alarm list
(** Turn one batch of checking results into alarms (with [at = 0.0]; the
    runner stamps the time). A degraded survey raises [Quorum_loss] and
    nothing else; list discrepancies naming a watched module are folded
    into its [Missing_module] alarm. Exposed so external drivers (the
    engine, the simulation harness) derive alarms exactly as the patrol
    loop does. *)

(** Event-driven checking: a long-lived session that keeps every page
    backing the watched modules (their section footprints, their LDR
    entries, and the [PsLoadedModuleList] walk) under hypervisor write
    traps, and on each trap re-checks {e only the affected watch
    sources}, immediately. The page sets come straight from the digest
    caches' footprints — the same pages a staleness probe would inspect
    — so arming requires a populated cache: {!Events.baseline} runs one
    full sweep and arms from its footprints. *)
module Events : sig
  type session

  type reaction = {
    rx_work : sweep_work;  (** What was checked and what it metered. *)
    rx_alarms : alarm list;  (** Stamped with the reaction's finish time. *)
    rx_wall : float;  (** Virtual wall time of the batch. *)
    rx_cpu : float;  (** Dom0 CPU-seconds of the batch. *)
    rx_traps : int;  (** Write-trap events drained pool-wide. *)
    rx_latencies : float list;
        (** Guest-write-to-alarm latency of each integrity alarm whose
            triggering trap is known; also fed to the
            [patrol.detection_latency_s] telemetry histogram. *)
  }

  val create :
    ?config:config ->
    inc:Orchestrator.incremental ->
    survey:(high:bool -> string -> string * Report.survey * Mc_hypervisor.Meter.t) ->
    lists:
      (high:bool ->
      unit ->
      (Orchestrator.list_comparison * Mc_hypervisor.Meter.t) option) ->
    Mc_hypervisor.Cloud.t ->
    session
  (** [create ~inc ~survey ~lists cloud] builds a session around the
      caller's checking closures — in-process orchestrator calls for
      {!run_events}, queue submissions for the engine. [survey ~high m]
      surveys module [m] pool-wide (with [high] hinting at queue
      priority: [true] for trap reactions, [false] for safety sweeps)
      and must run under a config sharing [inc], so its footprints land
      where the session arms from. [lists] likewise runs the DKOM list
      comparison; it is only invoked when [config.compare_lists]. *)

  val set_now : session -> float -> unit
  (** Advance every domain's trap clock to the session's virtual [now] —
      call before mutating the cloud at a virtual time, so the traps
      those writes raise are stamped correctly. *)

  val baseline : session -> now:float -> reaction
  (** Full sweep of every watch source regardless of traps (draining and
      attributing any pending ones), then (re-)arm every VM from the
      fresh footprints. Both the initial arming step and the periodic
      safety net. *)

  val react : session -> now:float -> reaction option
  (** Drain trap events pool-wide and re-check only the watch sources
      whose pages were written (a VM whose memory epoch changed —
      reboot/restore, which silently voids its watches — counts as a
      trap on everything it watched). [None] when nothing fired: an
      idle pool costs nothing, not even a hypercall. Affected VMs are
      re-armed afterwards. *)
end

val run_events_driven :
  ?config:config ->
  ?events:(float * (Mc_hypervisor.Cloud.t -> unit)) list ->
  ?full_every_s:float ->
  Mc_hypervisor.Cloud.t ->
  until:float ->
  Events.session ->
  outcome
(** [run_events_driven cloud ~until session] is the event-driven
    counterpart of {!run_driven}: a baseline sweep at t=0 arms the
    watches, then the loop processes timed [events] in order — each
    followed immediately by {!Events.react}, so detection happens at the
    event's time plus the targeted re-check's wall time, not at the next
    interval boundary — with an {!Events.baseline} safety sweep every
    [full_every_s] (default [20 × config.interval_s]) as a net under
    anything write traps cannot see. Events with [t > until] do not
    fire. *)

val run_events :
  ?config:config ->
  ?events:(float * (Mc_hypervisor.Cloud.t -> unit)) list ->
  ?full_every_s:float ->
  Mc_hypervisor.Cloud.t ->
  until:float ->
  outcome
(** [run_events cloud ~until] is {!run_events_driven} with in-process
    checking closures: surveys run under [config.check] forced
    incremental (the shared Merkle caches are what watches are armed
    from), with a worker pool when [config.workers > 1]. This is the
    CLI's [patrol --event-driven]. *)

val run_driven :
  ?config:config ->
  ?events:(float * (Mc_hypervisor.Cloud.t -> unit)) list ->
  Mc_hypervisor.Cloud.t ->
  until:float ->
  driver ->
  outcome
(** [run_driven cloud ~until driver] is the sweep loop alone: it fires
    timed events, calls [driver] once per sweep, derives alarms from the
    returned work (degraded surveys raise [Quorum_loss] and nothing
    else), prices the meters into virtual wall time via the scheduler
    model, and sleeps to the next interval boundary. *)

val run :
  ?config:config ->
  ?events:(float * (Mc_hypervisor.Cloud.t -> unit)) list ->
  Mc_hypervisor.Cloud.t ->
  until:float ->
  outcome
(** [run cloud ~until] patrols from virtual time 0 until the clock passes
    [until], surveying in-process: {!run_driven} with the default driver
    (per-module {!Orchestrator.survey} under [config.check], with a
    worker pool when [workers > 1] and shared incremental state when
    [incremental]). [events] are timed cloud mutations (e.g. staging an
    infection at t=70 s); each fires once, just before the first sweep
    that starts at or after its time. *)

val time_to_detect :
  outcome -> module_name:string -> infected_at:float -> float option
(** [time_to_detect outcome ~module_name ~infected_at] is the delay from
    infection to the first {e integrity} alarm ([Hash_deviation],
    [Missing_module], or [Anchor_mismatch]) naming the module at or
    after that time; [None] when no such alarm fired. Availability
    ([Quorum_loss]) and list-comparison alarms never count — a degraded
    sweep naming the module is not a detection. *)

val alarm_kind_string : alarm_kind -> string
(** Human-readable label, e.g. ["missing module"]. *)

val alarm_kind_key : alarm_kind -> string
(** Stable machine key, e.g. ["missing_module"] — used in JSON exports
    and by tooling that matches alarms structurally. *)

val to_json : outcome -> Mc_util.Json.t
