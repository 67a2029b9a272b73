(* Typed counters and gauges, recorded into per-domain tables.

   Counters are integer sums, so merging domain-local tables is
   associative and commutative — the snapshot is independent of worker
   count and scheduling (a property test pins this).  Gauges are floats
   with last-write-wins semantics, ordered by a global set-sequence so
   the merge is deterministic even when two domains set the same gauge.

   Disabled (the default), every entry point is one atomic load. *)

type value =
  | Int of int
  | Float of float

(* Histogram buckets are powers of two: a sample [v] lands in the bucket
   of its binary exponent (frexp), shifted so bucket 0 holds everything
   below 2^-31 and the last bucket everything above 2^31.  Counts merge
   by summation — associative and commutative like counters — so derived
   quantiles are independent of which domain observed which sample. *)
let hist_buckets = 64

let bucket_of v =
  if not (v > 0.) then 0 (* <= 0 and NaN collapse into the bottom bucket *)
  else
    let _, e = Float.frexp v in
    (* v in [2^(e-1), 2^e) *)
    max 0 (min (hist_buckets - 1) (e + 31))

(* Upper edge of a bucket: 2^(b - 31). *)
let bucket_upper b = Float.ldexp 1. (b - 31)

type hist = {
  mutable count : int;
  mutable sum : float;
  counts : int array;  (* hist_buckets cells *)
}

type entry =
  | Counter of int ref
  | Gauge of (int * float) ref  (* set-sequence, value *)
  | Hist of hist

type buf = { table : (string, entry) Hashtbl.t }

let registry : buf list ref = ref []
let registry_mutex = Mutex.create ()

let env_truthy name =
  match Sys.getenv_opt name with
  | None | Some "" | Some "0" -> false
  | Some _ -> true

let on = Atomic.make (env_truthy "COMPASS_METRICS")
let gauge_seq = Atomic.make 0

let enabled () = Atomic.get on
let enable () = Atomic.set on true
let disable () = Atomic.set on false

let buffer_key =
  Domain.DLS.new_key (fun () ->
      let b = { table = Hashtbl.create 64 } in
      Mutex.lock registry_mutex;
      registry := b :: !registry;
      Mutex.unlock registry_mutex;
      b)

let buffer () = Domain.DLS.get buffer_key

let reset () =
  Mutex.lock registry_mutex;
  List.iter (fun b -> Hashtbl.reset b.table) !registry;
  Mutex.unlock registry_mutex

(* [Hashtbl.find] rather than [find_opt]: a hit allocates nothing. *)
let add name n =
  if Atomic.get on then begin
    let b = buffer () in
    match Hashtbl.find b.table name with
    | Counter r -> r := !r + n
    | Gauge _ | Hist _ -> invalid_arg (Printf.sprintf "Metrics.add: %s is not a counter" name)
    | exception Not_found -> Hashtbl.add b.table name (Counter (ref n))
  end

let incr name = add name 1

let set name v =
  if Atomic.get on then begin
    let b = buffer () in
    let seq = Atomic.fetch_and_add gauge_seq 1 in
    match Hashtbl.find_opt b.table name with
    | Some (Gauge r) -> r := (seq, v)
    | Some (Counter _ | Hist _) ->
      invalid_arg (Printf.sprintf "Metrics.set: %s is not a gauge" name)
    | None -> Hashtbl.add b.table name (Gauge (ref (seq, v)))
  end

let observe name v =
  if Atomic.get on then begin
    let b = buffer () in
    let h =
      match Hashtbl.find_opt b.table name with
      | Some (Hist h) -> h
      | Some (Counter _ | Gauge _) ->
        invalid_arg (Printf.sprintf "Metrics.observe: %s is not a histogram" name)
      | None ->
        let h = { count = 0; sum = 0.; counts = Array.make hist_buckets 0 } in
        Hashtbl.add b.table name (Hist h);
        h
    in
    h.count <- h.count + 1;
    h.sum <- h.sum +. v;
    let i = bucket_of v in
    h.counts.(i) <- h.counts.(i) + 1
  end

let merged_entries () =
  let bufs =
    Mutex.lock registry_mutex;
    let bs = !registry in
    Mutex.unlock registry_mutex;
    bs
  in
  let merged : (string, entry) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun b ->
      Hashtbl.iter
        (fun name e ->
          match (Hashtbl.find_opt merged name, e) with
          | None, Counter r -> Hashtbl.replace merged name (Counter (ref !r))
          | None, Gauge r -> Hashtbl.replace merged name (Gauge (ref !r))
          | None, Hist h ->
            Hashtbl.replace merged name
              (Hist { count = h.count; sum = h.sum; counts = Array.copy h.counts })
          | Some (Counter acc), Counter r -> acc := !acc + !r
          | Some (Gauge acc), Gauge r ->
            let sa, _ = !acc and sr, _ = !r in
            if sr > sa then acc := !r
          | Some (Hist acc), Hist h ->
            acc.count <- acc.count + h.count;
            acc.sum <- acc.sum +. h.sum;
            Array.iteri (fun i n -> acc.counts.(i) <- acc.counts.(i) + n) h.counts
          | Some _, _ ->
            invalid_arg
              (Printf.sprintf "Metrics.snapshot: %s is recorded as two kinds" name))
        b.table)
    bufs;
  merged

(* The q-quantile of a merged histogram: the upper edge of the bucket
   where the cumulative count first reaches ceil(q * count). *)
let hist_quantile h q =
  if h.count = 0 then None
  else begin
    let rank = max 1 (int_of_float (ceil (q *. float_of_int h.count))) in
    let acc = ref 0 and found = ref None in
    Array.iteri
      (fun i n ->
        if !found = None then begin
          acc := !acc + n;
          if !acc >= rank then found := Some (bucket_upper i)
        end)
      h.counts;
    !found
  end

let quantile name q =
  if not (q >= 0. && q <= 1.) then invalid_arg "Metrics.quantile: q outside [0, 1]";
  match Hashtbl.find_opt (merged_entries ()) name with
  | None -> None
  | Some (Hist h) -> hist_quantile h q
  | Some (Counter _ | Gauge _) ->
    invalid_arg (Printf.sprintf "Metrics.quantile: %s is not a histogram" name)

let snapshot () =
  Hashtbl.fold
    (fun name e acc ->
      match e with
      | Counter r -> (name, Int !r) :: acc
      | Gauge r -> (name, Float (snd !r)) :: acc
      | Hist h ->
        let q p = match hist_quantile h p with Some v -> v | None -> 0. in
        (name ^ ".count", Int h.count)
        :: (name ^ ".p50", Float (q 0.5))
        :: (name ^ ".p99", Float (q 0.99))
        :: acc)
    (merged_entries ()) []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let find_int name =
  match List.assoc_opt name (snapshot ()) with
  | Some (Int n) -> Some n
  | Some (Float _) | None -> None

let value_to_string = function
  | Int n -> string_of_int n
  | Float v -> Printf.sprintf "%.6g" v
