(* The benchmark's inputs.  Program texts are fixed by their generator
   seeds; the benchmark seed only picks the suite rotation, the
   interpreter's undefined-value seeds and the serve-edit choices. *)

module Generator = Ipcp_gen.Generator
module Programs = Ipcp_suite.Programs

(* The text [ipcp gen --procs=PROCS --shape=mixed --seed=SEED] prints. *)
let generated ~procs ~seed =
  Generator.generate
    ~params:
      {
        Generator.default with
        Generator.seed;
        n_procs = procs;
        shape = Generator.Mixed;
        max_stmts = 6;
        n_globals = 3;
      }
    ()

let gen_10k () = generated ~procs:10_000 ~seed:1

let gen_1k () = generated ~procs:1_000 ~seed:1

(* Tabulation loses proc41.g2 and proc42.g2 on this program: see
   README.md, "The keystone fault". *)
let keystone_fault () = generated ~procs:100 ~seed:6

(* The twelve suite programs plus ctxdemo, as (name, text). *)
let suite () =
  List.map
    (fun (p : Programs.program) -> (p.Programs.name, p.Programs.source))
    (Programs.all @ Programs.extras)

(* Undefined-value seeds of the interpreter checks. *)
let interp_seeds seed = [ seed; seed + 7919 ]

(* ------------------------------------------------------------------ *)
(* Editable text for serve-edit: one chunk per procedure, each ending
   just before the procedure's closing [END] line, so that an edit
   appends a statement to the end of one body. *)

type editable = { bodies : Buffer.t array; tails : string array }

let editable text =
  let lines = String.split_on_char '\n' text in
  let bodies = ref [] and tails = ref [] in
  let body = Buffer.create 256 and tail = Buffer.create 16 in
  let in_tail = ref false in
  let flush () =
    let b = Buffer.create (Buffer.length body + 64) in
    Buffer.add_buffer b body;
    bodies := b :: !bodies;
    tails := Buffer.contents tail :: !tails;
    Buffer.clear body;
    Buffer.clear tail;
    in_tail := false
  in
  List.iteri
    (fun i line ->
      let sep = if i = 0 then "" else "\n" in
      if !in_tail && String.trim line <> "" then flush ();
      if !in_tail then Buffer.add_string tail (sep ^ line)
      else if String.trim line = "END" then begin
        Buffer.add_string tail (sep ^ line);
        in_tail := true
      end
      else Buffer.add_string body (sep ^ line))
    lines;
  if !in_tail then flush ();
  if Buffer.length body > 0 then
    failwith "editable: text after the last END line";
  {
    bodies = Array.of_list (List.rev !bodies);
    tails = Array.of_list (List.rev !tails);
  }

let procs_of (e : editable) = Array.length e.bodies

(* Append [stmt] to the body of the [i]-th procedure. *)
let insert (e : editable) i stmt = Buffer.add_string e.bodies.(i) ("\n  " ^ stmt)

let text (e : editable) =
  let b = Buffer.create (1 lsl 19) in
  Array.iteri
    (fun i body ->
      Buffer.add_buffer b body;
      Buffer.add_string b e.tails.(i))
    e.bodies;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Make-up of an input: procedures, statements (nested ones included)
   and bytes. *)

let makeup ~file text =
  let module A = Ipcp_frontend.Ast in
  let rec stmts l = List.fold_left (fun n s -> n + 1 + inner s) 0 l
  and inner = function
    | A.If (arms, els, _) ->
        List.fold_left (fun n (_, b) -> n + stmts b) (stmts els) arms
    | A.Do (_, _, _, _, b, _) | A.While (_, b, _) -> stmts b
    | _ -> 0
  in
  let prog = Ipcp_frontend.Parser.parse ~file text in
  ( List.length prog,
    List.fold_left (fun n (p : A.proc) -> n + stmts p.A.body) 0 prog,
    String.length text )

let all_named () =
  suite ()
  @ [
      ("gen-1k", gen_1k ());
      ("gen-10k", gen_10k ());
      ("keystone-fault", keystone_fault ());
    ]
