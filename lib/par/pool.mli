(** Fixed-size domain pool with deterministic result assembly.

    Workers compute, a single join rebuilds results in canonical input
    order, so parallel output is bit-identical to the sequential path.
    [jobs = 1] (or a single task, or a call from inside a worker) takes
    the exact sequential code path.  Exceptions raised by tasks are
    re-raised on the caller — the first in {e input} order, regardless
    of completion order.  Worker-domain telemetry accumulators are
    merged into the caller's registry when a batch joins.

    {2 Chunking and cost hints}

    Every combinator dispatches work as {e chunked batches}: task
    indices are grouped into contiguous ranges balanced by a per-task
    cost estimate, and lanes claim whole ranges from one atomic cursor,
    so the per-task dispatch overhead (a fetch-and-add plus, with
    telemetry on, two histogram observations) amortizes over the chunk.
    Claiming is dynamic — a lane stuck on an expensive chunk just claims
    fewer chunks — which bounds straggler overhang without a separate
    work-stealing deque.  Small batches (at most 4 chunks per lane's
    worth of tasks) degenerate to per-item claiming, the historical
    behaviour.

    [costs] are {e hints}: relative work estimates (a procedure's
    statement count is the intended unit — exact runtimes are not
    required).  They influence only how tasks are grouped, never their
    results, their order, or which exception is re-raised.  Each cost is
    clamped to at least 1; when omitted, tasks count 1 each.

    [seq_below] is the sequential cutoff: when the summed cost estimate
    is below it, the combinator runs sequentially on the caller — below
    {!default_seq_cost} (in statement units) a parallel dispatch
    reliably costs more than it buys.  The default is [0]: no cutoff. *)

open Ipcp_frontend.Names

val default_jobs : unit -> int
(** [IPCP_JOBS] when set to a positive integer, else
    [Domain.recommended_domain_count ()] (at least 1). *)

val oversubscribe : bool ref
(** [jobs] is an upper bound, not a lane count: the pool clamps lanes
    to [Domain.recommended_domain_count ()], because OCaml 5 minor
    collections are stop-the-world across domains — lanes beyond the
    core count only add GC-synchronization stalls.  Setting this
    testing hook to [true] disables the clamp, for tests that must
    force concurrent lanes (rendezvous batches) regardless of the
    host's core count.  Seeded from [IPCP_OVERSUBSCRIBE=1], so the
    parallel code paths can be exercised end-to-end from the CLI on a
    single-core host. *)

val default_seq_cost : int
(** Recommended [seq_below] for callers whose costs are statement
    counts: total work under this bound is cheaper to run in-line than
    to dispatch. *)

val map_array :
  jobs:int -> ?costs:int array -> ?seq_below:int -> ('a -> 'b) -> 'a array ->
  'b array
(** Order-preserving parallel map over at most [jobs] lanes (the
    calling domain is one of them).  [costs], when given, must have the
    same length as the input array. *)

val run_chunked : jobs:int -> costs:int array -> (int -> unit) -> unit
(** [run_chunked ~jobs ~costs f] runs [f 0 .. f (n-1)] where
    [n = Array.length costs], grouped into cost-balanced contiguous
    chunks.  Effects must be confined to disjoint per-index state (each
    index is executed exactly once, by exactly one lane).  The first
    exception in index order is re-raised after the batch joins. *)

val map_list : jobs:int -> ('a -> 'b) -> 'a list -> 'b list

val map_sm :
  jobs:int -> ?cost:(string -> 'a -> int) -> ?seq_below:int ->
  (string -> 'a -> 'b) -> 'a SM.t -> 'b SM.t
(** Keyed parallel map; the result map is rebuilt in ascending key
    order by the joining domain.  [jobs = 1] is exactly [SM.mapi].
    [cost] is evaluated once per binding, in ascending key order. *)

val iter_sm :
  jobs:int -> ?cost:(string -> 'a -> int) -> ?seq_below:int ->
  (string -> 'a -> unit) -> 'a SM.t -> unit
(** Keyed parallel iteration, for effectful per-procedure passes (the
    IR verifier).  [jobs = 1] is exactly [SM.iter]. *)
