(* The serve daemon under test runs in a child process: the benchmark
   re-executes itself as [main.exe --daemon SOCKET CACHE_FILE JOBS],
   which makes the same Serve.Server.create + serve calls as `lsml serve
   --jobs JOBS --cache-file`.  Its own process keeps the telemetry that
   Server.create switches on, and the daemon's memory, out of the
   client's measurements and out of every other workload. *)

type t = {
  pid : int;
  socket : string;
  cache_file : string;
  report : in_channel;  (** the child's stdout *)
}

type report = {
  create_ms : float;  (** Server.create: bind plus cache-log replay *)
  peak_rss_mb : float;
}

let listen t = `Unix t.socket

(* Child side.  Prints one report line after a graceful shutdown. *)
let child_main ~socket ~cache_file ~jobs =
  let parent = Unix.getppid () in
  (* A daemon whose benchmark died must not outlive it. *)
  ignore
    (Domain.spawn (fun () ->
         while Unix.getppid () = parent do
           Unix.sleepf 0.2
         done;
         Unix._exit 1));
  let t0 = Unix.gettimeofday () in
  let server =
    Serve.Server.create
      {
        (Serve.Server.default_config ~listen:(`Unix socket)) with
        Serve.Server.jobs = jobs;
        cache_file = Some cache_file;
      }
  in
  let create_ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
  Serve.Server.serve server;
  Printf.printf "%.6f %.3f\n%!" create_ms (Host.peak_rss_mb ());
  exit 0

(* Daemons started and not yet reaped, for the abnormal-exit cleanup. *)
let live : t list ref = ref []

let remove path = try Sys.remove path with Sys_error _ -> ()

let forget t = live := List.filter (fun d -> d.pid <> t.pid) !live

let status_ok t =
  match Serve.Client.connect (listen t) with
  | exception Unix.Unix_error _ -> false
  | c ->
      Fun.protect
        ~finally:(fun () -> Serve.Client.close c)
        (fun () ->
          match Serve.Client.rpc c (Serve.Json.Obj [ ("op", Serve.Json.Str "status") ]) with
          | j -> Serve.Json.member "type" j = Some (Serve.Json.Str "status")
          | exception (Failure _ | Unix.Unix_error _ | Sys_error _) -> false)

(* Start a daemon and return once it answers [status]. *)
let start ~jobs ~socket ~cache_file =
  let r, w = Unix.pipe ~cloexec:true () in
  let exe = Sys.executable_name in
  let pid =
    Unix.create_process exe
      [| exe; "--daemon"; socket; cache_file; string_of_int jobs |]
      Unix.stdin w Unix.stderr
  in
  Unix.close w;
  let t = { pid; socket; cache_file; report = Unix.in_channel_of_descr r } in
  live := t :: !live;
  let deadline = Unix.gettimeofday () +. 60.0 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | p, _ when p = pid ->
        forget t;
        close_in t.report;
        failwith "serve daemon exited while starting"
    | _ ->
        if not (status_ok t) then
          if Unix.gettimeofday () > deadline then
            failwith "serve daemon did not answer status within 60 s"
          else begin
            Unix.sleepf 0.002;
            wait ()
          end
  in
  wait ();
  t

(* Wait up to [grace] seconds for the child to exit, then SIGKILL it.
   True when it exited by itself with status 0. *)
let reap t ~grace =
  let deadline = Unix.gettimeofday () +. grace in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] t.pid with
    | 0, _ ->
        if Unix.gettimeofday () > deadline then begin
          (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] t.pid);
          false
        end
        else begin
          Unix.sleepf 0.005;
          wait ()
        end
    | _, Unix.WEXITED 0 -> true
    | _ -> false
  in
  let clean = wait () in
  forget t;
  remove t.socket;
  clean

(* Graceful stop: a shutdown request, then {!reap}.  The cache log is
   left in place (serve-cached restarts on it). *)
let stop t =
  (match Serve.Client.connect (listen t) with
  | exception Unix.Unix_error _ -> ()
  | c ->
      Fun.protect
        ~finally:(fun () -> Serve.Client.close c)
        (fun () ->
          try Serve.Client.send_line c {|{"op":"shutdown"}|}
          with Sys_error _ | Unix.Unix_error _ -> ()));
  let clean = reap t ~grace:10.0 in
  let line = In_channel.input_line t.report in
  close_in t.report;
  match line with
  | Some l when clean ->
      Scanf.sscanf l "%f %f" (fun create_ms peak_rss_mb -> { create_ms; peak_rss_mb })
  | _ -> failwith "serve daemon did not shut down cleanly"

(* Every exit path of the benchmark: no daemon survives it. *)
let kill_all () =
  List.iter
    (fun t ->
      ignore (reap t ~grace:0.0);
      remove t.cache_file)
    !live
