// Forwarding rt::Task that times each handler of the task it wraps.
//
// Nothing under src/ downcasts a task, so the runtime cannot tell the proxy
// from the task behind it; the transparency check (job.h) confirms that a
// job run through proxies ends with the same RunSummary, event count and
// answer digest as the same job run without them.
#pragma once

#include <memory>
#include <utility>

#include "rt/task.h"
#include "tracer.h"

namespace perfbench {

class ProxyTask final : public acr::rt::Task {
 public:
  ProxyTask(std::unique_ptr<acr::rt::Task> inner, Tracer& tracer)
      : inner_(std::move(inner)), tracer_(&tracer) {}

  void on_start() override {
    Scope s(tracer_, SpanName::TaskStart);
    bind();
    inner_->on_start();
  }
  void on_resume() override {
    Scope s(tracer_, SpanName::TaskResume);
    bind();
    inner_->on_resume();
  }
  void on_message(const acr::rt::Message& m) override {
    Scope s(tracer_, SpanName::TaskMessage);
    bind();
    inner_->on_message(m);
  }
  void pup(acr::pup::Puper& p) override {
    Scope s(tracer_, p.is_packing()     ? SpanName::PupPack
                     : p.is_unpacking() ? SpanName::PupUnpack
                                        : SpanName::PupSizing);
    bind();
    inner_->pup(p);
  }
  std::uint64_t progress() const override { return inner_->progress(); }

 private:
  // The hosting node installs `ctx` on the proxy right after the factory
  // returns, and never changes it; the inner task needs the same context
  // before its first handler runs.
  void bind() { inner_->ctx = ctx; }

  std::unique_ptr<acr::rt::Task> inner_;
  Tracer* tracer_;
};

}  // namespace perfbench
