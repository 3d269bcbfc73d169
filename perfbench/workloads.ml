(* Workload shapes. Streams are 2^20 operations, replayed cyclically. *)

let log_len = 20

(* list-read: ~128 nodes walked per op, so per-node costs dominate. *)
let list_shape = { Streams.key_range = 512; insert_pct = 10; delete_pct = 10 }

(* hash-write: 256 buckets, ~4 nodes walked per op, half the ops update,
   so per-op fixed costs (alloc, retire, free) dominate. *)
let hash_shape = { Streams.key_range = 4096; insert_pct = 25; delete_pct = 25 }

(* kv-zipf: 4 tenants x 4096 keys, Zipfian theta 0.9. *)
let kv_spec =
  Qs_workload.Kv_spec.make ~tenants:4 ~dist:(Qs_workload.Kv_spec.Zipfian 0.9)
    ~scan_span:16 ~keys_per_tenant:4096
    ~mix:{ get_pct = 80; put_pct = 10; del_pct = 5; scan_pct = 5 }
    ()

let gen_set shape ~seed =
  (Streams.gen_set ~seed ~log_len shape, Streams.set_fill ~seed shape)

(* The reference stacks' (reference.ml) throughput on each stream on the
   2-vCPU KVM reference machine, rounded: the nominal speed every time
   metric is scaled to. Only a scale; the factor's changes are what
   cancel the host's drift. *)
let list_nominal = 3.8e6
let hash_nominal = 14.5e6
let kv_nominal = 12.5e6

(* The list reference between simulated cases on explore-corpus, where it
   runs in short slices beside the simulator. *)
let explore_nominal = 4.6e6

let gen_list = gen_set list_shape
let gen_hash = gen_set hash_shape

(* The initial store holds two keys in three (local key mod 3 <> 2):
   the equilibrium occupancy put / (put + del) of the request mix, so the
   store neither grows nor shrinks during a run. It is the same for every
   seed: rarely written cold keys keep their initial presence for the whole
   run, and a seeded fill would make each seed's hot keys sit at different
   depths of their bucket chains — a per-seed cost that only widens the
   spread. Only the request stream comes from the seed. *)
let gen_kv ~seed =
  let open Qs_workload.Kv_spec in
  let m = kv_spec.mix in
  assert (m.put_pct = 2 * m.del_pct);
  let keys = ref [] in
  for tenant = 0 to kv_spec.tenants - 1 do
    for local = 0 to kv_spec.keys_per_tenant - 1 do
      if local mod 3 <> 2 then keys := key_of kv_spec ~tenant ~local :: !keys
    done
  done;
  let fill = Array.of_list !keys in
  Qs_util.Prng.shuffle (Qs_util.Prng.create ~seed:0) fill;
  (Streams.gen_kv ~seed ~log_len kv_spec, fill)
