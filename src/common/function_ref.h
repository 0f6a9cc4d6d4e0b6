// FunctionRef: a non-owning, non-allocating reference to a callable —
// the hot-path replacement for `const std::function&` parameters.
//
// std::function is the wrong tool for "call me back during this call":
// constructing one from a capturing lambda heap-allocates (beyond the
// small-buffer size) and every invocation goes through two indirections.
// The dispatcher's rekey hooks are invoked once per waiting request on
// every queue swap, so those costs land on the scheduler's hot path.
//
// FunctionRef is two words (object pointer + trampoline pointer), is
// trivially copyable, and never allocates. Like std::string_view it does
// not extend the callable's lifetime: use it only for callbacks consumed
// before the call returns (every use in this codebase), never stored.

#ifndef CSFC_COMMON_FUNCTION_REF_H_
#define CSFC_COMMON_FUNCTION_REF_H_

#include <memory>
#include <type_traits>
#include <utility>

namespace csfc {

template <typename Signature>
class FunctionRef;

template <typename R, typename... Args>
class FunctionRef<R(Args...)> {
 public:
  /// Binds to any callable invocable as R(Args...). Intentionally
  /// implicit so call sites keep passing lambdas directly.
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::remove_cvref_t<F>, FunctionRef> &&
                std::is_invocable_r_v<R, F&, Args...>>>
  FunctionRef(F&& f) noexcept  // NOLINT(google-explicit-constructor)
      : obj_(const_cast<void*>(
            static_cast<const void*>(std::addressof(f)))),
        call_([](void* obj, Args... args) -> R {
          return static_cast<R>((*static_cast<std::remove_reference_t<F>*>(
              obj))(std::forward<Args>(args)...));
        }) {}

  R operator()(Args... args) const {
    return call_(obj_, std::forward<Args>(args)...);
  }

 private:
  void* obj_;
  R (*call_)(void*, Args...);
};

}  // namespace csfc

#endif  // CSFC_COMMON_FUNCTION_REF_H_
