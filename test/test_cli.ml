(* End-to-end tests of the modchecker CLI binary: a golden transcript of
   every subcommand compared byte for byte, and the exit codes of invalid
   invocations. The binary path comes from the dune rule's dependency (see
   test/dune). *)

(* Under `dune runtest` the cwd is _build/default/test; under
   `dune exec test/test_cli.exe` it is the project root. *)
let locate candidates =
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> List.hd candidates

let exe =
  locate
    [
      "../bin/modchecker_cli.exe";
      "_build/default/bin/modchecker_cli.exe";
      "bin/modchecker_cli.exe";
    ]

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* Run [exe ARGS] through the shell; [code] is its exit status and the two
   streams come back separately. [pipe] feeds its stdin. *)
let run_split ?(pipe = "true") args =
  let out_file = Filename.temp_file "modchecker_cli" ".out" in
  let err_file = Filename.temp_file "modchecker_cli" ".err" in
  let code =
    Sys.command
      (Printf.sprintf "%s | %s %s > %s 2> %s" pipe (Filename.quote exe) args
         (Filename.quote out_file) (Filename.quote err_file))
  in
  let out = read_file out_file and err = read_file err_file in
  Sys.remove out_file;
  Sys.remove err_file;
  (code, out, err)

let status args =
  let code, _, _ = run_split args in
  code

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i =
    i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1))
  in
  go 0

let check = Alcotest.check

let test_bad_arguments () =
  Alcotest.(check bool)
    "cmdliner rejects" true
    (status "check --infect nonsense" <> 0);
  Alcotest.(check bool)
    "unknown command rejected" true
    (status "no-such-command" <> 0)

(* --- golden transcripts --------------------------------------------------

   Each test/golden/NAME.expected holds one or more "$ modchecker ARGS"
   blocks with the stdout, stderr and exit code of that invocation. The
   test re-runs them in order and compares the transcript byte for byte.
   ARGS may name SMOKE (bin/serve_smoke.requests) and LEDGER (a temporary
   ledger file shared by the blocks of one case). Only fields that vary
   from run to run are masked, each by a fixed token:
   - serve's wall time "in %.3fs real";
   - serve's engine counters "N busy", "N retry/retries", "N coalesced",
     "N serviced" and "max queue depth N": they depend on how the
     dispatcher domains interleave;
   - a wire reply's "wait_s" and "service_s" (wall clock) and its "meter"
     object (which shard warms a shared cache first decides the metered
     cost of the rest);
   - the ledger head, which hashes those replies;
   - the ledger path, a fresh temporary file per run.
   A stream longer than 64 KiB (serve --stream's 200 replies) is recorded
   as its length and MD5 after masking, which still pins every byte.

   On a mismatch the actual transcript is written to NAME.actual in the
   temporary directory; copying it over the expected file re-records the
   case. *)

let golden_dir = locate [ "golden"; "test/golden" ]

let smoke = locate [ "../bin/serve_smoke.requests"; "bin/serve_smoke.requests" ]

let masks =
  List.map
    (fun (re, token) -> (Str.regexp re, token))
    [
      ("in [0-9.]+s real", "in <REAL>s real");
      ("[0-9]+ busy", "<N> busy");
      ("[0-9]+ retr\\(y\\|ies\\)", "<N> retries");
      ("[0-9]+ coalesced", "<N> coalesced");
      ("[0-9]+ serviced", "<N> serviced");
      ("max queue depth [0-9]+", "max queue depth <N>");
      ("\"wait_s\":[-+.e0-9]+", "\"wait_s\":<T>");
      ("\"service_s\":[-+.e0-9]+", "\"service_s\":<T>");
      ("\"meter\":{[^}]*}", "\"meter\":<METER>");
      ("head [0-9a-f]+", "head <HEAD>");
    ]

let transcript ~ledger args =
  let subst what by s = Str.global_replace (Str.regexp_string what) by s in
  let record s =
    let mask s (re, token) = Str.global_replace re token s in
    let s = List.fold_left mask s masks in
    let s = subst ledger "<LEDGER>" s in
    if String.length s <= 65536 then s
    else
      Printf.sprintf "(%d bytes, md5 %s)\n" (String.length s)
        (Digest.to_hex (Digest.string s))
  in
  let code, out, err =
    run_split
      (args
      |> subst "SMOKE" (Filename.quote smoke)
      |> subst "LEDGER" (Filename.quote ledger))
  in
  Printf.sprintf "$ modchecker %s\n--- stdout\n%s--- stderr\n%s--- exit %d\n"
    args (record out) (record err) code

let test_golden name () =
  let expected = read_file (Filename.concat golden_dir (name ^ ".expected")) in
  let prefix = "$ modchecker " in
  let invocations =
    String.split_on_char '\n' expected
    |> List.filter_map (fun l ->
           if String.starts_with ~prefix l then
             Some (String.sub l 13 (String.length l - 13))
           else None)
  in
  let ledger = Filename.temp_file "modchecker_golden" ".jsonl" in
  let actual = String.concat "" (List.map (transcript ~ledger) invocations) in
  Sys.remove ledger;
  if actual <> expected then begin
    let file =
      Filename.concat (Filename.get_temp_dir_name ()) (name ^ ".actual")
    in
    let oc = open_out_bin file in
    output_string oc actual;
    close_out oc;
    Alcotest.failf "%s: transcript differs (actual in %s)" name file
  end

(* The subcommand tests that run under their own names, each with its
   golden file. *)
let commands =
  [
    ("check clean", "check_clean");
    ("check infected", "check_infected");
    ("check json", "check_json");
    ("check pinpoint", "check_pinpoint");
    ("survey", "survey");
    ("list-modules", "list_modules");
    ("health", "health");
    ("patrol", "patrol");
  ]

let golden_tests =
  Sys.readdir golden_dir |> Array.to_list
  |> List.filter_map (fun f -> Filename.chop_suffix_opt ~suffix:".expected" f)
  |> List.filter (fun name -> not (List.mem name (List.map snd commands)))
  |> List.sort compare
  |> List.map (fun name -> Alcotest.test_case name `Quick (test_golden name))

(* --- argument validation ------------------------------------------------ *)

(* Each exits 1 with exactly one "error:" line on stderr and nothing on
   stdout. *)
let rejected =
  [
    (* --vm outside the pool, wherever it is used *)
    "check --vms 3 --vm 5";
    "check --vms 3 --vm=-1";
    "survey --vms 3 --infect hook --vm 9";
    "health --vms 3 --infect hook --vm 9";
    "patrol --vms 3 --infect hook --vm 9 --duration 30";
    "serve --vms 3 --infect hook --vm 9 --requests /dev/null";
    "federate --vms 3 --infect hook --vm 7";
    "list-modules --vms 2 --vm 7";
    "disasm --vms 2 --vm 4";
    "evade --vms 3 --vm 9 --duration 30";
    (* counts below 1 *)
    "check --vms 0";
    "detect --vms 0";
    "federate --vms 0";
    "serve --shards 0 --requests /dev/null";
    "serve --window 0 --stream --requests /dev/null";
    "serve --queue-bound 0 --requests /dev/null";
    "serve -j 0 --requests /dev/null";
    (* paths that cannot be opened *)
    "simtest --steps 1 --transcript /nonexistent/x";
    "simtest --script /nonexistent/x";
    "serve --requests /dev/null --ledger /nonexistent/x";
    "serve --requests /nonexistent/x";
  ]

let test_rejected () =
  List.iter
    (fun args ->
      let code, out, err = run_split args in
      check Alcotest.int (args ^ ": exit") 1 code;
      check Alcotest.string (args ^ ": stdout") "" out;
      match String.split_on_char '\n' err with
      | [ line; "" ] when String.starts_with ~prefix:"error: " line -> ()
      | _ -> Alcotest.failf "%s: want one error line, got %S" args err)
    rejected;
  (* Without --infect the index is unused, so it is not an error. *)
  check Alcotest.int "unused --vm" 0 (status "health --vms 3 --vm 9")

(* A fraction outside [0,1] is a parse error (Cmdliner's exit 124). *)
let test_fractions () =
  List.iter
    (fun args -> check Alcotest.int args 124 (status args))
    [
      "check --vms 3 --quorum 1.5";
      "survey --vms 3 --quorum=-0.1";
      "federate --host-quorum 2";
      "simtest --quorum 2 --steps 1";
    ]

(* A wire request naming an absent VM is answered "invalid" and the
   session goes on; the batch verdict is the combined error. *)
let test_serve_absent_vm () =
  let code, out, _ =
    run_split
      ~pipe:"printf 'check 0 hal.dll\\ncheck 9 hal.dll\\ncheck 1 hal.dll\\n'"
      "serve --vms 3 --stream"
  in
  check Alcotest.int "combined exit 1" 1 code;
  List.iter
    (fun (seq, kind) ->
      Alcotest.(check bool)
        (Printf.sprintf "seq %d %s" seq kind)
        true
        (contains out (Printf.sprintf "\"type\":\"%s\",\"seq\":%d," kind seq)))
    [ (0, "response"); (1, "invalid"); (2, "response") ]

let () =
  Alcotest.run "cli"
    [
      ( "commands",
        List.map
          (fun (name, golden) ->
            Alcotest.test_case name `Quick (test_golden golden))
          commands
        @ [ Alcotest.test_case "bad arguments" `Quick test_bad_arguments ] );
      ("golden", golden_tests);
      ( "validation",
        [
          Alcotest.test_case "rejected with exit 1" `Quick test_rejected;
          Alcotest.test_case "fractions in [0,1]" `Quick test_fractions;
          Alcotest.test_case "serve: absent VM on the wire" `Quick
            test_serve_absent_vm;
        ] );
    ]
