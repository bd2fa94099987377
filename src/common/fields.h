// One field list per record. A record that crosses a process, file or
// report boundary lists its fields once, in a visitor next to its struct:
//
//   template <FieldsOf<FaultPlan> R, class F>
//   void visit_fields(R& r, F&& f) { f("kind", r.kind); f("sm", r.sm); ... }
//
// calling `f(name, member)` per field in declaration order, for a const or
// a mutable `R`. Each codec is written once, overloaded by field type, and
// reaches nested records through their visitors. Serialized enums declare
// `constexpr u32 enum_count(E)` beside the enum (found by ADL) so decoders
// can reject out-of-range values; enums written by name add enum_name(E).
#pragma once

#include <concepts>
#include <type_traits>
#include <vector>

#include "common/types.h"

namespace higpu {

/// `R` is `T` or `const T`: the receiver of a visit_fields overload.
template <class R, class T>
concept FieldsOf = std::same_as<std::remove_const_t<R>, T>;

template <class T>
concept Visited = requires(T& t) {
  visit_fields(t, [](const char*, auto&) {});
};

template <class E>
concept CountedEnum = std::is_enum_v<E> && requires(E e) {
  { enum_count(e) } -> std::convertible_to<u32>;
};

template <class T>
inline constexpr bool kIsVector = false;
template <class T>
inline constexpr bool kIsVector<std::vector<T>> = true;

/// Closes a per-type codec's `if constexpr` chain: static_assert(kNoCodec<T>).
template <class T>
inline constexpr bool kNoCodec = false;

}  // namespace higpu
