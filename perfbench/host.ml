(* Where a run happened, so numbers from two machines are never compared
   blind, and the process's own peak memory. *)

let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec find () =
        match In_channel.input_line ic with
        | None -> failwith "VmHWM missing from /proc/self/status"
        | Some l when String.starts_with ~prefix:"VmHWM:" l ->
            Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
        | Some _ -> find ()
      in
      find ())

(* Trimmed stdout of a successful git command; [None] outside a
   repository or without git. *)
let git args =
  match
    Unix.open_process_args_full "git"
      (Array.of_list ("git" :: args))
      (Unix.environment ())
  with
  | exception Unix.Unix_error _ -> None
  | (out, _, err) as p -> (
      let s = In_channel.input_all out in
      ignore (In_channel.input_all err);
      match Unix.close_process_full p with
      | Unix.WEXITED 0 -> Some (String.trim s)
      | _ -> None)

let block ~seed ~seconds =
  let open Serve.Json in
  let commit, dirty =
    match git [ "rev-parse"; "HEAD" ] with
    | None -> (Str "unknown", Null)
    | Some c ->
        ( Str c,
          match git [ "status"; "--porcelain"; "--untracked-files=no" ] with
          | Some s -> Bool (s <> "")
          | None -> Null )
  in
  Obj
    [
      ("nproc", Int (Domain.recommended_domain_count ()));
      ("ocaml", Str Sys.ocaml_version);
      ("commit", commit);
      ("dirty", dirty);
      ("profile", Str Build_info.profile);
      ("seed", Int seed);
      ("seconds", Float seconds);
    ]
