(** Bounded admission queue with high/low watermark load-shedding.

    The serving runtime must reject work explicitly rather than let its
    queue grow without bound: past the {e high} watermark every offer is
    shed (the caller answers [rejected] with an [overloaded] note, so
    the client can back off), and shedding continues until the queue
    drains below the {e low} watermark — hysteresis, so a server hovering
    at the boundary flaps between accept-all and shed-all instead of
    shedding every other request.

    Depth and shed counts surface as [serve.queue_depth] (gauge) and
    [serve.shed] (counter) in {!Compass_util.Metrics}.  Single-domain
    use only (the serving loop owns it); not thread-safe. *)

type 'a t

val create : ?high:int -> ?low:int -> unit -> 'a t
(** [create ~high ~low ()] — defaults high 64, low [high / 2].  Raises
    [Invalid_argument] unless [1 <= low <= high]. *)

val offer : 'a t -> 'a -> bool
(** Enqueue, or [false] when the offer is shed (queue at the high
    watermark, or still draining toward the low one). *)

val pop : 'a t -> 'a option

val depth : 'a t -> int
val high : 'a t -> int
