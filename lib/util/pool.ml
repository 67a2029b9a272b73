let max_jobs = 128

let resolve_jobs jobs =
  if jobs < 0 then invalid_arg (Printf.sprintf "jobs must be >= 0, got %d" jobs)
  else if jobs = 0 then min max_jobs (Domain.recommended_domain_count ())
  else min max_jobs jobs

let default_jobs () =
  match Sys.getenv_opt "COMPASS_JOBS" with
  | None -> 1
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some j when j >= 0 -> resolve_jobs j
    | Some _ | None -> 1)

exception
  Task_error of {
    index : int;
    worker : int;
    attempts : int;
    error : exn;
  }

let () =
  Printexc.register_printer (function
    | Task_error { index; worker; attempts; error } ->
      Some
        (Printf.sprintf "pool task %d failed on worker %d after %d attempt(s): %s" index
           worker attempts (Printexc.to_string error))
    | _ -> None)

type supervision = {
  policy : Retry.t;
  watchdog : Budget.t option;
}

let supervision ?(retries = 2) ?watchdog () =
  { policy = Retry.make ~retries ~base_s:0. (); watchdog }

(* One phase = one [map_init] call.  Workers block on [work] until the
   epoch advances, run the current body (which pulls item indices from an
   atomic counter until exhausted), then report completion on [done_].
   Pre-counting [running] before the broadcast ensures the caller cannot
   observe the phase as finished before a worker has even started. *)
type t = {
  n_jobs : int;
  mutex : Mutex.t;
  work : Condition.t;
  done_ : Condition.t;
  mutable body : (unit -> unit) option;
  mutable epoch : int;
  mutable running : int;
  mutable stopped : bool;
  mutable domains : unit Domain.t list;
}

let jobs t = t.n_jobs

let worker_loop t =
  let rec loop seen =
    Mutex.lock t.mutex;
    while (not t.stopped) && t.epoch = seen do
      Condition.wait t.work t.mutex
    done;
    if t.stopped then Mutex.unlock t.mutex
    else begin
      let epoch = t.epoch in
      let body = Option.get t.body in
      Mutex.unlock t.mutex;
      body ();
      Mutex.lock t.mutex;
      t.running <- t.running - 1;
      if t.running = 0 then Condition.broadcast t.done_;
      Mutex.unlock t.mutex;
      loop epoch
    end
  in
  loop 0

let create ~jobs =
  if jobs < 1 then invalid_arg "Pool.create: jobs < 1";
  let t =
    {
      n_jobs = min max_jobs jobs;
      mutex = Mutex.create ();
      work = Condition.create ();
      done_ = Condition.create ();
      body = None;
      epoch = 0;
      running = 0;
      stopped = false;
      domains = [];
    }
  in
  t.domains <- List.init (t.n_jobs - 1) (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

let shutdown t =
  let to_join =
    Mutex.lock t.mutex;
    let ds = t.domains in
    t.domains <- [];
    t.stopped <- true;
    Condition.broadcast t.work;
    Mutex.unlock t.mutex;
    ds
  in
  List.iter Domain.join to_join

(* Run [body] on every domain of the pool and wait until all have
   drained.  [body] must never raise. *)
let run_phase t body =
  Mutex.lock t.mutex;
  if t.stopped then begin
    Mutex.unlock t.mutex;
    invalid_arg "Pool: used after shutdown"
  end;
  t.body <- Some body;
  t.epoch <- t.epoch + 1;
  t.running <- t.n_jobs - 1;
  Condition.broadcast t.work;
  Mutex.unlock t.mutex;
  body ();
  Mutex.lock t.mutex;
  while t.running > 0 do
    Condition.wait t.done_ t.mutex
  done;
  t.body <- None;
  Mutex.unlock t.mutex

let rec push slot x =
  let cur = Atomic.get slot in
  if not (Atomic.compare_and_set slot cur (x :: cur)) then push slot x

(* Failed tasks are re-executed on the calling domain, in index order —
   deterministic for any worker count (a pure [f] yields the same value
   on retry, so a recovered run equals an unfailed one).  The watchdog
   budget bounds the whole recovery loop: once it expires, the remaining
   failures surface instead of retrying further. *)
let recover ~supervision ~f ~state ~out failures =
  let ordered =
    List.sort (fun (i, _, _) (j, _, _) -> compare i j) failures
  in
  let give_up index worker attempts error =
    raise (Task_error { index; worker; attempts; error })
  in
  List.iter
    (fun (index, worker, error) ->
      match supervision with
      | None -> give_up index worker 1 error
      | Some { policy; watchdog } ->
        let rec retry n last =
          match Retry.next ?budget:watchdog policy ~attempt:n with
          | Retry.Exhausted | Retry.Expired -> give_up index worker (n + 1) last
          | Retry.Again _ -> (
            match
              Metrics.incr "pool.retries";
              Failpoint.guard "pool.task";
              f (state ()) index
            with
            | y -> out.(index) <- Some y
            | exception e -> retry (n + 1) e)
        in
        retry 0 error)
    ordered

let map_init ?supervision t ~init ~f xs =
  let n = Array.length xs in
  if t.stopped then invalid_arg "Pool: used after shutdown";
  if n = 0 then ([||], [])
  else begin
    let out = Array.make n None in
    let states = Atomic.make [] in
    let failures = Atomic.make [] in
    let exec s i =
      match
        Failpoint.guard "pool.task";
        f s xs.(i)
      with
      | y -> out.(i) <- Some y
      | exception exn ->
        Metrics.incr "pool.task_errors";
        push failures (i, (Domain.self () :> int), exn)
    in
    if t.n_jobs = 1 then begin
      let s = init () in
      push states s;
      for i = 0 to n - 1 do
        exec s i
      done
    end
    else begin
      let next = Atomic.make 0 in
      let body () =
        let local = ref None in
        let state () =
          match !local with
          | Some s -> s
          | None ->
            let s = init () in
            local := Some s;
            push states s;
            s
        in
        let rec pull () =
          let i = Atomic.fetch_and_add next 1 in
          if i < n then begin
            exec (state ()) i;
            pull ()
          end
        in
        pull ()
      in
      run_phase t body
    end;
    (match Atomic.get failures with
    | [] -> ()
    | failures ->
      (* Retries run on the calling domain with a lazily-built state of
         their own, merged back like any worker's. *)
      let retry_state = ref None in
      let state () =
        match !retry_state with
        | Some s -> s
        | None ->
          let s = init () in
          retry_state := Some s;
          push states s;
          s
      in
      recover ~supervision ~f:(fun s i -> f s xs.(i)) ~state ~out failures);
    (Array.map (function Some y -> y | None -> assert false) out, Atomic.get states)
  end

let map ?supervision t f xs =
  fst (map_init ?supervision t ~init:(fun () -> ()) ~f:(fun () x -> f x) xs)

let map_local ?supervision t ~init ~f xs = fst (map_init ?supervision t ~init ~f xs)

let with_pool ~jobs f =
  let t = create ~jobs in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
