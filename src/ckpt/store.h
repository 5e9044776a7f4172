// Double in-memory checkpoint store (§2.1), extracted from NodeAgent.
//
// One Store lives on every node and owns the two epochs of the paper's
// double checkpointing: the *verified* image (passed cross-replica
// comparison; the authoritative rollback target) and the *candidate* image
// (packed this consensus round, awaiting its verdict). The redundancy
// scheme (redundancy.h) decides what ELSE protects the verified image —
// nothing (Local), a buddy copy (Partner), or group parity (Rs) — but the
// promotion state machine here is scheme-independent.
//
// An optional CheckpointVault (vault.h) gives the store a durable tier:
// when attached, every promotion is written through to disk.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>

#include "ckpt/vault.h"
#include "pup/pup.h"

namespace acr::ckpt {

/// A checkpoint image plus its protocol coordinates. `valid` is false for
/// an empty slot (no epoch held).
struct Image {
  bool valid = false;
  std::uint64_t epoch = 0;
  std::uint64_t iteration = 0;
  pup::Checkpoint image;
};

/// Outcome of a promotion attempt, for callers that care why nothing moved.
enum class PromoteResult {
  Promoted,       ///< candidate became the verified image
  NoCandidate,    ///< no candidate staged (duplicate commit, or a fresh spare)
  EpochMismatch,  ///< candidate belongs to a different consensus round
};

class Store {
 public:
  Store() = default;

  /// Stage a freshly packed image as the candidate of `epoch`.
  void stage_candidate(std::uint64_t epoch, std::uint64_t iteration,
                       pup::Checkpoint image);
  /// Drop the candidate (consensus aborted, rollback, or restore).
  void discard_candidate() { candidate_ = Image{}; }

  /// Commit verdict for `epoch`: promote the candidate to verified iff it
  /// is valid and belongs to that epoch. A duplicated commit is harmless
  /// (NoCandidate — the slot emptied on the first promotion); a commit for
  /// a round this node never packed, or raced past (in-flight verdict of a
  /// different epoch), leaves both slots untouched.
  PromoteResult promote(std::uint64_t epoch);

  /// Install `img` as the verified image directly (restore paths: rollback
  /// re-adoption, buddy-shipped image, XOR rebuild). Discards the candidate
  /// — it predates the state jump.
  void adopt_verified(Image img);

  /// Image to restore for a rollback to `epoch`: the verified image when it
  /// matches, else the candidate when IT matches (the commit raced the
  /// rollback: a candidate for the rollback epoch necessarily passed the
  /// comparison). Null when neither slot can serve the epoch.
  const Image* restorable(std::uint64_t epoch) const;

  /// Forget everything (restart from scratch).
  void reset();

  const Image& verified() const { return verified_; }
  const Image& candidate() const { return candidate_; }
  bool has_verified() const { return verified_.valid; }
  bool has_candidate() const { return candidate_.valid; }

  /// Attach a durable tier: promotions write through; reset() prunes.
  void attach_vault(std::shared_ptr<CheckpointVault> vault) {
    vault_ = std::move(vault);
  }
  const CheckpointVault* vault() const { return vault_.get(); }

 private:
  Image verified_;
  Image candidate_;
  std::shared_ptr<CheckpointVault> vault_;
};

}  // namespace acr::ckpt
