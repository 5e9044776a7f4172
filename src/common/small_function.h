// Move-only `void()` callable with inline storage for small closures.
//
// The event engine stores one of these per pending event, and the hot
// closures of the simulator are tiny: a delivery is `{cluster, record}`, a
// compute continuation `{node, incarnation, slot}`, a retransmit timer
// `{transport, link, seq}`. std::function keeps only 16 bytes inline in
// libstdc++, so each of those cost a heap allocation per event. A
// SmallFunction keeps up to kInlineBytes inline and falls back to one heap
// allocation for anything larger (or anything whose move may throw), so
// it is never worse than std::function and it is the same 32 bytes.
//
// Trivially copyable closures — every hot one — move by memcpy and need no
// destructor call; only the rest go through their ops table.
#pragma once

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace acr {

class SmallFunction {
 public:
  /// Closures up to this size (and pointer alignment) are stored inline.
  static constexpr std::size_t kInlineBytes = 24;

  /// True when a callable of type F is stored inline (no allocation).
  template <typename F>
  static constexpr bool stores_inline() {
    return sizeof(F) <= kInlineBytes && alignof(F) <= kAlign &&
           std::is_nothrow_move_constructible_v<F>;
  }

  SmallFunction() noexcept = default;
  SmallFunction(std::nullptr_t) noexcept {}

  template <typename F,
            typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, SmallFunction> &&
                                        std::is_invocable_r_v<void, D&>>>
  SmallFunction(F&& f) {  // NOLINT: implicit, like std::function
    if constexpr (stores_inline<D>()) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
      ops_ = &kInlineOps<D>;
    } else {
      D* heap = new D(std::forward<F>(f));
      std::memcpy(storage_, &heap, sizeof heap);
      ops_ = &kHeapOps<D>;
    }
  }

  SmallFunction(SmallFunction&& other) noexcept { take(other); }

  SmallFunction& operator=(SmallFunction&& other) noexcept {
    if (this != &other) {
      reset();
      take(other);
    }
    return *this;
  }

  SmallFunction(const SmallFunction&) = delete;
  SmallFunction& operator=(const SmallFunction&) = delete;

  ~SmallFunction() { reset(); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  void operator()() { ops_->invoke(storage_); }

  /// Destroy the held closure (and everything it captured) now.
  void reset() noexcept {
    if (ops_ != nullptr && ops_->destroy != nullptr) ops_->destroy(storage_);
    ops_ = nullptr;
  }

 private:
  static constexpr std::size_t kAlign = alignof(void*);

  struct Ops {
    void (*invoke)(void* storage);
    /// Move-construct into `dst` from `src` and destroy `src`; nullptr
    /// means a plain memcpy of the storage does both.
    void (*relocate)(void* dst, void* src) noexcept;
    /// nullptr means nothing to destroy.
    void (*destroy)(void* storage) noexcept;
  };

  template <typename D>
  static constexpr Ops kInlineOps{
      [](void* s) { (*static_cast<D*>(s))(); },
      std::is_trivially_copyable_v<D>
          ? nullptr
          : +[](void* dst, void* src) noexcept {
              D* from = static_cast<D*>(src);
              ::new (dst) D(std::move(*from));
              from->~D();
            },
      std::is_trivially_destructible_v<D>
          ? nullptr
          : +[](void* s) noexcept { static_cast<D*>(s)->~D(); },
  };

  template <typename D>
  static D* heap_ptr(void* s) {
    D* p;
    std::memcpy(&p, s, sizeof p);
    return p;
  }

  template <typename D>
  static constexpr Ops kHeapOps{
      [](void* s) { (*heap_ptr<D>(s))(); },
      nullptr,  // the pointer itself relocates by memcpy
      [](void* s) noexcept { delete heap_ptr<D>(s); },
  };

  void take(SmallFunction& other) noexcept {
    ops_ = other.ops_;
    if (ops_ == nullptr) return;
    if (ops_->relocate == nullptr)
      std::memcpy(storage_, other.storage_, kInlineBytes);
    else
      ops_->relocate(storage_, other.storage_);
    other.ops_ = nullptr;
  }

  alignas(kAlign) unsigned char storage_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

}  // namespace acr
