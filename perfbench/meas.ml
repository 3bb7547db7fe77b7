(* Clock, allocation, memory and summary statistics. *)

let now () = Int64.to_float (Ipcp_obs.Obs.now_ns ()) *. 1e-9

(* Words allocated so far by every domain.  [Gc.quick_stat] adds up the
   samples each domain takes at its own minor collections, so the domain
   pool's workers are counted; [Gc.minor_words] would count the calling
   domain only.  The samples lag by up to a minor heap per domain, so a
   minor collection (stop-the-world, on every domain) brings them up to
   date first. *)
let alloc_words () =
  Gc.minor ();
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

(* Words allocated so far by the calling domain, exactly and without a
   collection: the traced run's replay runs on one domain. *)
let domain_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* [f ()] with its wall time in seconds and the words it allocated, as
   [words] counts them. *)
let timed ?(words = alloc_words) f =
  let w0 = words () in
  let t0 = now () in
  let x = f () in
  let dt = now () -. t0 in
  (x, dt, words () -. w0)

(* Peak resident set of this process, in MB (VmHWM). *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> failwith "no VmHWM in /proc/self/status"
        | line when String.starts_with ~prefix:"VmHWM:" line ->
            Scanf.sscanf
              (String.sub line 6 (String.length line - 6))
              " %f kB"
              (fun kb -> kb /. 1024.)
        | _ -> scan ()
      in
      scan ())

let median = function
  | [] -> nan
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Per-layer accumulator of the traced run: metric name -> total. *)
module Acc = struct
  type t = (string, float ref) Hashtbl.t

  let create () : t = Hashtbl.create 64

  let add (t : t) k v =
    match Hashtbl.find_opt t k with
    | Some r -> r := !r +. v
    | None -> Hashtbl.add t k (ref v)

  let get (t : t) k = match Hashtbl.find_opt t k with Some r -> !r | None -> 0.

  (* Run [f] as the layer [name]: adds its seconds to [name.s] and its
     megawords to [name.mw]. *)
  let layer t name f =
    let x, dt, w = timed ~words:domain_words f in
    add t (name ^ ".s") dt;
    add t (name ^ ".mw") (w /. 1e6);
    x
end
