(* Fabric forwarding: one reader walks a fixed, seeded packet vector
   through the sharded fabric with no updates.  The vector mixes packets
   aimed at a committed rule (70%) with noise (30%). *)

open Sdx_net
open Sdx_ixp
module Fabric = Sdx_fabric.Fabric
module Table = Sdx_openflow.Table
module Flow = Sdx_openflow.Flow

let vector_size = 8192
let batch = 2048
let oracle_sample = 2048

let rand_ip rng = Ipv4.of_int ((Rng.int rng 0x8000 lsl 16) lor Rng.int rng 0x10000)

(* A packet with a random rule's pinned fields and the rest jittered (a
   higher-priority rule may still claim it), or uniform noise. *)
let synth rng (flows : Flow.t array) =
  if Rng.bool rng ~p:0.3 || Array.length flows = 0 then
    Packet.make ~port:(Rng.int rng 32)
      ~dst_mac:(Mac.of_int (Rng.int rng 0xFFFFFF))
      ~src_ip:(rand_ip rng) ~dst_ip:(rand_ip rng)
      ~dst_port:(Rng.pick rng [ 80; 443; 22 ])
      ()
  else
    let pat = flows.(Rng.int rng (Array.length flows)).pattern in
    let inside p = Prefix.host p (Rng.int rng (min (1 lsl (32 - Prefix.length p)) 65536)) in
    let mac o = Option.value o ~default:(Mac.of_int (Rng.int rng 0xFFFFFF)) in
    let ip o = match o with Some p -> inside p | None -> rand_ip rng in
    Packet.make
      ~port:(Option.value pat.port ~default:(Rng.int rng 32))
      ~src_mac:(mac pat.src_mac) ~dst_mac:(mac pat.dst_mac)
      ~eth_type:(Option.value pat.eth_type ~default:Packet.ethertype_ipv4)
      ~src_ip:(ip pat.src_ip) ~dst_ip:(ip pat.dst_ip)
      ~proto:(Option.value pat.proto ~default:Packet.proto_tcp)
      ~src_port:(Option.value pat.src_port ~default:(Rng.int rng 65536))
      ~dst_port:(Option.value pat.dst_port ~default:(Rng.pick rng [ 80; 443; 22 ]))
      ()

(* The forwarding phase: [passes] passes over the vector drawn from
   --seed, one batch per step, after one pass over a fixed vector that
   warms the tables up and has its allocation counted exactly.  A traced run alternates batches between
   the fabric walk and a lookup in one table holding the same flows. *)
let phase (ex : Exchange.t) ~seed ~passes ~traced (report : Report.t) =
  let fabric = ex.fabric in
  let vector seed =
    let rng = Rng.create ~seed:(seed + 104_729) in
    let flows = Array.of_list ex.flows in
    Array.init vector_size (fun _ -> synth rng flows)
  in
  let delivered, words =
    Stats.minor_words (fun () ->
        Array.fold_left
          (fun n p -> if Fabric.process fabric p = [] then n else n + 1)
          0 (vector 0))
  in
  let pkts = vector seed in
  (* One table holding the flows the fabric holds, rebuilt when a commit
     replaced them. *)
  let table = Table.create () in
  let held = ref [] and search = ref (fun _ -> None) in
  let sync () =
    if ex.flows != !held then begin
      Table.clear table;
      Table.install_all table ex.flows;
      held := ex.flows;
      search := Table.searcher (Table.snapshot table)
    end
  in
  let walk_ns = ref [] and lookup_ns = ref [] and batches = ref 0 in
  let step () =
    let first = !batches * batch mod vector_size in
    let lookup = traced && !batches land 1 = 1 in
    incr batches;
    if lookup then sync ();
    let search = !search in
    let t0 = Span.now () in
    if lookup then
      for k = first to first + batch - 1 do
        ignore (search pkts.(k))
      done
    else
      for k = first to first + batch - 1 do
        ignore (Fabric.process fabric pkts.(k))
      done;
    let ns = 1e9 *. (Span.now () -. t0) /. float_of_int batch in
    if lookup then lookup_ns := ns :: !lookup_ns else walk_ns := ns :: !walk_ns
  in
  let finish () =
    (* The oracle: the flows the fabric holds now, on one big switch,
       read through a pure snapshot reader. *)
    let single = Fabric.create (Sdx_fabric.Topology.single ~ports:(Exchange.ports_of ex.workload)) in
    ignore (Fabric.commit single ex.flows);
    let read = Fabric.reader (Fabric.snapshots single) in
    let canon = List.sort Packet.compare in
    for i = 0 to oracle_sample - 1 do
      let p = pkts.(i) in
      Report.attempt report
        (canon (Fabric.process fabric p) = canon (read p))
        (lazy (Format.asprintf "packet %d %a: the 2-edge fabric and one switch disagree" i Packet.pp p))
    done;
    let m = Report.metric report in
    let walk = Stats.median !walk_ns in
    if not traced then m "forward_pps" "packets/s" (1e9 /. walk)
    else begin
      let lookup = Stats.median !lookup_ns in
      sync ();
      let e = Table.engine_stats table in
      let core = Sdx_fabric.Topology.core_switches (Fabric.topo fabric) in
      let edges, cores = List.partition (fun (s, _) -> not (List.mem s core)) (Fabric.rule_counts fabric) in
      let largest l = float_of_int (List.fold_left (fun m (_, n) -> max m n) 0 l) in
      m "table.lookup_ns" "ns" lookup;
      m "table.exact_entries" "count" (float_of_int e.exact_entries);
      m "table.prefix_entries" "count" (float_of_int e.prefix_entries);
      m "table.residual_entries" "count" (float_of_int e.residual_entries);
      m "table.exact_shapes" "count" (float_of_int e.exact_shapes);
      m "fabric.walk_ns" "ns" walk;
      m "fabric.hop_overhead_ns" "ns" (walk -. lookup);
      m "fabric.edge_rules" "count" (largest edges);
      m "fabric.core_rules" "count" (largest cores);
      m "fabric.delivered_share" "ratio" (float_of_int delivered /. float_of_int vector_size);
      m "gc.minor_words_per_packet" "words/packet" (words /. float_of_int vector_size)
    end
  in
  (Phase.make ~name:"forward" ~ops:(passes * vector_size / batch) step, finish)
