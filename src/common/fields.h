// Field-list walks over the plain result records: SessionResult and the
// per-layer reports it composes. Each record lists its members exactly once,
// in a `for_each_field(visitor, records...)` next to its definition; the
// checkpoint codec, the bit-exact test comparator and the golden serializer
// are all visitors over that one list.
//
// A walk calls `visitor(name, fields...)` once per member, in declaration
// order (which is also the checkpoint byte order), passing that member of
// every record it was given: one record to read or write, two to compare
// or accumulate in lockstep. Names are the golden-file keys.
#pragma once

#include <concepts>
#include <string>
#include <string_view>
#include <type_traits>

namespace volcast::common {

/// `T` is `Record`, possibly const: one walk can take records of mixed
/// constness, e.g. an accumulator and a const addend.
template <class T, class Record>
concept FieldsOf = std::same_as<std::remove_const_t<T>, Record>;

/// Forwards every field to `visitor` with `prefix` prepended to its name:
/// how a composed record nests a part's walk ("faults.", "user3.").
template <class V>
struct Prefixed {
  V& visitor;
  std::string prefix;

  template <class... T>
  void operator()(std::string_view name, T&... fields) {
    visitor(prefix + std::string(name), fields...);
  }
};
template <class V>
Prefixed(V&, std::string) -> Prefixed<V>;

}  // namespace volcast::common
