(* faultcamp: the deterministic fault-injection campaign runner.

   Default mode runs a campaign: --seeds N trials per log configuration,
   with the whole schedule derived from --seed.  Passing --crash switches
   to single-trial mode, replaying exactly one (config, seed, crash
   point, fault rates) trial — the shape of the REPRO lines the campaign
   prints on failure. *)

open Cmdliner
module F = Rewind_benchlib.Faultcamp

let run ~base_seed ~seeds ~config ~crash ~evict_ppm ~survive_ppm ~quiet =
  match crash with
  | Some crash_after ->
      (* single-trial reproducer mode *)
      let config = Option.value ~default:"1l-nfp" config in
      let t =
        {
          F.config_name = config;
          fault_seed = base_seed;
          crash_after;
          eviction_ppm = evict_ppm;
          survival_ppm = survive_ppm;
        }
      in
      let v = F.run_trial t in
      Fmt.pr "%a: %a@." F.pp_trial t F.pp_verdict v;
      (match v with F.Pass -> 0 | F.Fail _ -> 1)
  | None ->
      let sched = F.schedule ~config_filter:config ~base_seed ~seeds () in
      if not quiet then
        Fmt.pr "campaign: seed %d, %d trials, schedule digest %08x@." base_seed
          (List.length sched)
          (F.schedule_digest sched);
      let r = F.run_campaign ~config_filter:config ~quiet ~base_seed ~seeds () in
      if not quiet then
        Fmt.pr "total: %d trials, %d failures@." r.F.trials
          (List.length r.F.failures);
      if r.F.failures = [] then 0 else 1

let () =
  let seed =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"N"
          ~doc:
            "Base seed.  In campaign mode it derives the whole schedule; in \
             single-trial mode it seeds the fault model.")
  in
  let seeds =
    Arg.(
      value & opt (Cli_arg.count ~min:1) 200
      & info [ "seeds" ] ~docv:"N"
          ~doc:"Trials per log configuration (campaign mode).")
  in
  let config =
    let names = List.map (fun n -> (n, n)) F.config_names in
    Arg.(
      value & opt (some (enum names)) None
      & info [ "config" ] ~docv:"NAME"
          ~doc:("Restrict to one log configuration: " ^ doc_alts_enum names))
  in
  let crash =
    Arg.(
      value & opt (some (Cli_arg.count ~min:0)) None
      & info [ "crash" ] ~docv:"K"
          ~doc:
            "Single-trial mode: crash after the K-th persistence event and \
             check recovery.")
  in
  let ppm = Cli_arg.bounded ~min:0 ~max:Rewind_nvm.Fault_model.ppm_max in
  let evict_ppm =
    Arg.(
      value & opt ppm 0
      & info [ "evict-ppm" ] ~docv:"P"
          ~doc:"Single-trial mode: spontaneous-eviction probability (ppm).")
  in
  let survive_ppm =
    Arg.(
      value & opt ppm 500_000
      & info [ "survive-ppm" ] ~docv:"P"
          ~doc:"Single-trial mode: per-line crash-survival probability (ppm).")
  in
  let quiet = Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"Only set the exit code.") in
  let term =
    Term.(
      const (fun base_seed seeds config crash evict_ppm survive_ppm quiet ->
          run ~base_seed ~seeds ~config ~crash ~evict_ppm ~survive_ppm ~quiet)
      $ seed $ seeds $ config $ crash $ evict_ppm $ survive_ppm $ quiet)
  in
  let info =
    Cmd.info "faultcamp" ~version:"1.0.0"
      ~doc:"Deterministic fault-injection campaign for the REWIND logs"
  in
  exit (Cmd.eval' (Cmd.v info term))
