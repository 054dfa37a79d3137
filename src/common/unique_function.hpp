// A move-only std::function. It holds what std::function cannot (a
// std::promise, a net::Responder, another UniqueFunction), and keeps
// callables of up to six pointers inline, so a completion capturing a
// promise or a handful of handles costs no allocation.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace prts {

template <typename Signature>
class UniqueFunction;

template <typename R, typename... Args>
class UniqueFunction<R(Args...)> {
 public:
  UniqueFunction() noexcept = default;
  UniqueFunction(std::nullptr_t) noexcept {}  // NOLINT: mirrors std::function

  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<
                !std::is_same_v<D, UniqueFunction> &&
                std::is_invocable_r_v<R, D&, Args...>>>
  UniqueFunction(F&& f) {  // NOLINT: implicit, like std::function
    if constexpr (kInline<D>) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
    } else {
      ::new (static_cast<void*>(storage_)) D*(new D(std::forward<F>(f)));
    }
    ops_ = &kOps<D>;
  }

  UniqueFunction(UniqueFunction&& other) noexcept { take(other); }

  UniqueFunction& operator=(UniqueFunction&& other) noexcept {
    if (this != &other) {
      reset();
      take(other);
    }
    return *this;
  }

  UniqueFunction(const UniqueFunction&) = delete;
  UniqueFunction& operator=(const UniqueFunction&) = delete;

  ~UniqueFunction() { reset(); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  /// Calls the held callable; must not be empty. Arguments of value
  /// type are taken as rvalues, so a reply is moved once, not per layer.
  R operator()(Args&&... args) {
    return ops_->invoke(storage_, std::forward<Args>(args)...);
  }

 private:
  static constexpr std::size_t kInlineBytes = 6 * sizeof(void*);

  template <typename D>
  static constexpr bool kInline =
      sizeof(D) <= kInlineBytes &&
      alignof(D) <= alignof(std::max_align_t) &&
      std::is_nothrow_move_constructible_v<D>;

  struct Ops {
    R (*invoke)(void* storage, Args&&... args);
    /// Move-constructs `to` from `from` and destroys `from`.
    void (*relocate)(void* from, void* to) noexcept;
    void (*destroy)(void* storage) noexcept;
  };

  template <typename D>
  static D& target(void* storage) noexcept {
    if constexpr (kInline<D>) {
      return *std::launder(static_cast<D*>(storage));
    } else {
      return **std::launder(static_cast<D**>(storage));
    }
  }

  template <typename D>
  static constexpr Ops kOps{
      [](void* storage, Args&&... args) -> R {
        return static_cast<R>(
            target<D>(storage)(std::forward<Args>(args)...));
      },
      [](void* from, void* to) noexcept {
        if constexpr (kInline<D>) {
          D& source = target<D>(from);
          ::new (to) D(std::move(source));
          source.~D();
        } else {
          ::new (to) D*(*std::launder(static_cast<D**>(from)));
        }
      },
      [](void* storage) noexcept {
        if constexpr (kInline<D>) {
          target<D>(storage).~D();
        } else {
          delete *std::launder(static_cast<D**>(storage));
        }
      }};

  void take(UniqueFunction& other) noexcept {
    if (other.ops_ == nullptr) return;
    other.ops_->relocate(other.storage_, storage_);
    ops_ = std::exchange(other.ops_, nullptr);
  }

  void reset() noexcept {
    if (ops_ != nullptr) std::exchange(ops_, nullptr)->destroy(storage_);
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

}  // namespace prts
