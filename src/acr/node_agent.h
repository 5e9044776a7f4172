// Per-node ACR agent (§2, §4).
//
// One agent lives on every application node. It implements the node-local
// side of every ACR protocol:
//  * Fig. 3 checkpoint consensus — pausing tasks at progress reports,
//    asynchronous max-progress and readiness reductions along a binary tree
//    of the replica's logical node indices;
//  * the double in-memory checkpoint store (ckpt::Store: verified +
//    candidate epochs) and the pluggable redundancy scheme protecting it
//    (ckpt::RedundancyScheme: local / partner / rs group parity);
//  * SDC detection — shipping the checkpoint (or its Fletcher-64 digest) to
//    the buddy node in the other replica and comparing (§2.1, §4.1–4.2);
//  * buddy heartbeating and no-response failure detection (§6.1);
//  * restore paths for rollback, buddy-assisted spare recovery, parity group
//    rebuild, and the forward-jump restores of the medium/weak schemes.
//
// Reductions travel agent-to-agent with modelled latency; control
// broadcasts come directly from the job manager (see manager.h).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "acr/config.h"
#include "acr/wire.h"
#include "ckpt/redundancy.h"
#include "ckpt/rs.h"
#include "ckpt/store.h"
#include "ckpt/tier.h"
#include "pup/pup.h"
#include "rt/cluster.h"
#include "rt/node.h"

namespace acr {

/// Everything an agent needs from its surroundings.
struct AcrEnv {
  rt::Cluster* cluster = nullptr;
  const AcrConfig* config = nullptr;
  /// Simulated L2 durable tier; null (or config->tier disabled) = the
  /// single-tier protocol, byte-identical to builds without the tier.
  ckpt::DurableTier* tier = nullptr;
};

class NodeAgent final : public rt::NodeService {
 public:
  NodeAgent(AcrEnv env, rt::Node& node);

  /// Begin heartbeating and watchdog duty.
  void start();

  /// Re-arm the agent after a restart-from-scratch relaunch: forgets all
  /// checkpoints and protocol state, restarts heartbeat loops. Agents are
  /// never destroyed while their node lives (scheduled events hold `this`),
  /// so relaunches reuse them.
  void reset_for_restart();

  /// Adopt the node's current (replica, index) role. A repaired node
  /// re-enters the spare pool and may be promoted into a *different* role
  /// than the one it died in; the reused agent must re-derive its tree
  /// position and redundancy-scheme layout before reset_for_restart().
  /// No-op when the role is unchanged.
  void rebind_role();

  /// Raise the restore-wave floor: restore commands and in-flight restore
  /// applications whose barrier id is at or below `barrier` are ignored
  /// from now on. The manager calls this when a scratch restart abandons a
  /// recovery wave whose rollback/rebuild commands may still be in flight —
  /// without it, a stale kRollbackHard landing after the reset would revive
  /// pre-restart state on part of the cluster and deadlock the app.
  void quash_restores_through(std::uint64_t barrier);

  // --- rt::NodeService -------------------------------------------------------
  void on_service_message(const rt::Message& m) override;
  rt::ProgressDecision on_progress(int slot, std::uint64_t iters) override;
  void on_task_done(int slot) override;

  // --- introspection (tests / stats) ------------------------------------------
  enum class Phase {
    Idle,
    Quiesce,         ///< Fig. 3 phase 2: pausing at next report
    RunToIteration,  ///< Fig. 3 phase 3: running until the decided iteration
    Packing,         ///< Fig. 3 phase 4: serializing
    AwaitVerdict,    ///< checkpoint shipped / verdict pending
    Halted,          ///< weak scheme: waiting for the recovery checkpoint
  };
  Phase phase() const { return phase_; }
  bool has_verified() const { return store_.has_verified(); }
  std::uint64_t verified_epoch() const { return store_.verified().epoch; }
  std::uint64_t verified_iteration() const {
    return store_.verified().iteration;
  }
  std::size_t verified_bytes() const { return store_.verified().image.size(); }
  /// Bytes of the verified checkpoint image — the node's authoritative
  /// (cross-replica-compared) answer.
  std::span<const std::byte> verified_image() const {
    return store_.verified().image.bytes();
  }
  std::size_t checkpoints_packed() const { return checkpoints_packed_; }
  /// An L2 flush of the verified image is in flight on this node.
  bool flush_active() const { return flush_.active; }
  /// The double checkpoint store (verified/candidate epochs).
  const ckpt::Store& store() const { return store_; }
  /// The redundancy scheme protecting the verified image.
  const ckpt::RedundancyScheme& redundancy() const { return *scheme_; }

  /// Codec-pipeline traffic counters (all zero when the codec is off).
  struct CodecStats {
    std::uint64_t frames = 0;        ///< codec frames shipped to the buddy
    std::uint64_t full_frames = 0;   ///< frames that carried every chunk
    std::uint64_t chunks_total = 0;  ///< chunks covered by shipped frames
    std::uint64_t chunks_shipped = 0;  ///< chunks actually in the payloads
    std::uint64_t raw_bytes = 0;     ///< image bytes the frames represent
    std::uint64_t wire_bytes = 0;    ///< map + payload bytes on the wire
    std::uint64_t need_full = 0;     ///< receiver-initiated full fallbacks
  };
  const CodecStats& codec_stats() const { return codec_stats_; }

 private:
  // Tree helpers over logical node indices of this replica.
  int parent_index() const { return (index_ - 1) / 2; }
  bool is_root() const { return index_ == 0; }
  std::vector<int> child_indices() const;

  // Message handlers.
  void handle_checkpoint_request(const wire::CkptRequestMsg& msg);
  void handle_iteration_decided(const wire::IterationMsg& msg);
  void handle_pack_command(const wire::EpochMsg& msg);
  void handle_commit(const wire::EpochMsg& msg);
  void handle_rollback(const wire::RestoreCmdMsg& msg, bool sdc);
  void handle_halt();
  void handle_abort(const wire::EpochMsg& msg);
  void handle_resume();
  // Tree reductions carry the contributing child's index: contributions are
  // tracked as identity sets, so a duplicated control message can never
  // double-count (idempotency under an at-least-once transport).
  void handle_tree_progress(const wire::ProgressMsg& msg, int child);
  void handle_tree_ready(const wire::ReadyMsg& msg, int child);
  void handle_tree_verdict(const wire::VerdictMsg& msg, int child);
  void handle_buddy_checkpoint(const rt::Message& m);
  void handle_buddy_checksum(const rt::Message& m);
  void handle_send_to_buddy(const rt::Message& m, bool candidate);

  // Codec pipeline (ckpt/codec.h) plumbing. All of it is inert when
  // --ckpt-delta=off --ckpt-compress=none: codec_on() gates every call
  // site, which is what keeps codec-off runs byte-identical.
  bool codec_on() const { return env_.config->codec.enabled(); }
  /// Ship the candidate to the buddy as a codec frame (dirty chunks and/or
  /// compressed), or fall back to the legacy full transfer when no frame
  /// is possible.
  void send_codec_frame_to_buddy();
  void handle_buddy_delta_checkpoint(const rt::Message& m);
  void handle_buddy_need_full(const wire::NeedFullMsg& msg);
  /// Drop every delta base (own, buddy's, L2 chain): the next transfer of
  /// each kind ships a full image. Called on restart, role change, and
  /// restore — the moments the ISSUE's invalidation rules name.
  void invalidate_codec_bases();

  // Durable-tier plumbing (all no-ops unless env_.tier is attached AND
  // config->tier.enabled() — the gate that keeps no-L2 runs byte-identical).
  bool tier_enabled() const;
  void handle_flush_command(const wire::FlushCmdMsg& msg);
  /// Begin (or short-circuit) the chunked drain of the verified image of
  /// `epoch` to L2. Publication happens only after the LAST chunk's I/O.
  void start_flush(std::uint64_t epoch, bool urgent);
  void flush_next_chunk(std::uint64_t seq);
  void finish_flush(bool published);
  /// Cancel an in-flight flush (a newer commit superseded its epoch, or a
  /// restart wiped the store). Traces FlushSuperseded when `trace` is set.
  void supersede_flush(bool trace);
  /// A restore just adopted a verified image: re-drain it if L2 lacks it
  /// (converges post-recovery epochs back to fully-flushed).
  void maybe_reflush_after_restore();
  void handle_fetch_from_durable(const wire::RestoreCmdMsg& msg);

  // Consensus steps.
  void maybe_send_progress_up();
  void check_ready();
  void maybe_send_ready_up();
  void maybe_compare();
  void maybe_send_verdict_up();
  void finish_local_verdict(bool match);

  // Checkpoint plumbing.
  void pack_candidate();
  void after_pack();
  void restore_from(const ckpt::Image& ckpt, const char* why,
                    std::uint64_t barrier);
  void send_checkpoint_to_buddy(const ckpt::Image& ckpt, std::uint8_t purpose,
                                std::uint64_t barrier = 0);
  void refresh_done_from_tasks();
  void report_node_done_if_complete();

  // Redundancy scheme plumbing.
  void make_scheme();
  /// The scheme as RsScheme, or nullptr under any other scheme.
  ckpt::RsScheme* rs_scheme();

  // Heartbeats.
  void heartbeat_tick();
  void watchdog_tick();

  void send_to_manager(int tag, buf::Buffer payload);
  void send_to_agent(int replica, int node_index, int tag, buf::Buffer payload,
                     double bytes_on_wire = -1.0, buf::Buffer attachment = {});
  double now() const;

  AcrEnv env_;
  rt::Node& node_;
  int replica_;
  int index_;
  int num_nodes_;

  // Consensus state.
  Phase phase_ = Phase::Idle;
  std::uint64_t epoch_ = 0;
  std::uint8_t participants_ = 3;
  bool single_replica_ckpt_ = false;
  std::uint64_t decided_iteration_ = 0;
  int num_children_ = 0;
  /// Children whose contribution to each reduction has been counted.
  /// Sets, not counters: a duplicated tree message must not double-count.
  std::set<int> progress_children_;
  std::set<int> ready_children_;
  std::set<int> verdict_children_;
  std::uint64_t subtree_max_progress_ = 0;
  bool local_quiesced_ = false;
  bool local_ready_ = false;
  bool subtree_match_ = true;
  std::uint64_t subtree_mismatches_ = 0;
  bool local_verdict_done_ = false;
  /// A child's kTreeProgress can legitimately overtake this node's own
  /// kCheckpointRequest (they travel different links). Early contributions
  /// are stashed by epoch and replayed when the request arrives.
  std::map<std::uint64_t, std::map<int, std::uint64_t>> progress_stash_;
  /// Highest restore barrier acted on; duplicated or re-routed restore
  /// commands for a wave already taken are ignored.
  std::uint64_t last_restore_barrier_ = 0;

  // Comparison state. The remote image aliases the buddy's stored
  // checkpoint buffer (zero-copy transfer); the digest is folded while
  // packing, so checksum mode never re-reads the image.
  bool pack_complete_ = false;
  bool have_remote_ = false;
  buf::Buffer remote_image_;
  wire::ChecksumMsg remote_checksum_;
  std::uint64_t local_digest_ = 0;

  // Task bookkeeping.
  std::vector<bool> done_;
  bool node_done_reported_ = false;

  // Checkpoint store + redundancy scheme.
  ckpt::Store store_;
  std::unique_ptr<ckpt::RedundancyScheme> scheme_;
  std::size_t checkpoints_packed_ = 0;

  // Two-phase restart barrier: restored, waiting for the collective go.
  bool awaiting_go_ = false;

  // Async L2 flush state machine. Guarded by a sequence number, not the
  // node incarnation: a flush of the SAME verified epoch legitimately
  // survives an in-place restore, but any supersede/reset bumps the seq so
  // stale chunk completions fall dead.
  struct FlushState {
    bool active = false;
    std::uint64_t epoch = 0;
    std::uint64_t remaining = 0;  ///< encoded bytes still to drain
    bool urgent = false;          ///< drain/scavenge flush (counts as such)
    /// Codec path: the pre-encoded v2 blob to publish after the last chunk
    /// (empty = legacy v1 encode at publish time) and its delta base.
    std::vector<std::byte> blob;
    std::uint64_t base_epoch = 0;
    /// Chunk digests of the flushed image — the next flush's delta base.
    std::vector<std::uint32_t> digests;
  };
  FlushState flush_;
  std::uint64_t flush_seq_ = 0;

  // Codec (delta/compress) state. A "base" is a committed image both ends
  // of a channel agree on; deltas are only ever taken against one.
  struct CodecBase {
    std::uint64_t epoch = 0;  ///< 0 = no base held
    buf::Buffer image;
    std::vector<std::uint32_t> digests;  ///< kDigestChunk-grid CRC32Cs
  };
  /// This node's last committed image (delta base for buddy/parity sends).
  CodecBase codec_base_;
  /// Cached copy of the BUDDY's committed image (replica-1 compare side):
  /// what incoming delta frames are overlaid on.
  CodecBase buddy_base_;
  /// Epoch of this node's image the buddy last held in full — deltas are
  /// legal only while it equals codec_base_.epoch. 0 after any fallback.
  std::uint64_t sent_base_epoch_ = 0;
  /// Digests of the candidate packed this round (reused as codec_base_'s
  /// digests when the round commits).
  std::vector<std::uint32_t> cand_digests_;
  /// Epoch/digests/size of this node's newest L2 blob: the flush chain's
  /// delta base. The image itself lives in the tier.
  std::uint64_t l2_base_epoch_ = 0;
  std::vector<std::uint32_t> l2_base_digests_;
  std::uint64_t l2_base_bytes_ = 0;
  /// The next parity exchange must ship full chunks (post-restore).
  bool parity_force_full_ = false;
  CodecStats codec_stats_;

  // Heartbeat state. Each node watches its buddy (cross-replica, §2.1) and
  // its reduction-tree parent and children (intra-replica), so every node
  // has a live observer even when a whole buddy pair dies at once.
  struct Peer {
    int replica;
    int node_index;
    double last_heard = 0.0;
    bool suspected = false;
  };
  std::vector<Peer> peers_;
  std::uint64_t heartbeat_incarnation_ = 0;
};

}  // namespace acr
