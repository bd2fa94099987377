#include "exp/result_io.h"

#include "common/jsonl.h"

namespace higpu::exp {

namespace {

template <class T>
void put_json(JsonWriter& jw, const T& v);

template <Visited R>
void put_json_fields(JsonWriter& jw, const R& rec) {
  visit_fields(rec, [&jw](const char* name, const auto& v) {
    jw.key(name);
    put_json(jw, v);
  });
}

/// One JSON value per field type: records as objects, enums by name,
/// floating point at round-trip precision, StatSets as counter objects.
template <class T>
void put_json(JsonWriter& jw, const T& v) {
  if constexpr (Visited<T>) {
    jw.begin_object();
    put_json_fields(jw, v);
    jw.end_object();
  } else if constexpr (kIsVector<T>) {
    jw.begin_array();
    for (const auto& e : v) put_json(jw, e);
    jw.end_array();
  } else if constexpr (std::is_same_v<T, StatSet>) {
    jw.begin_object();
    for (const auto& [name, value] : v.entries()) jw.field(name, value);
    jw.end_object();
  } else if constexpr (CountedEnum<T>) {
    jw.value(enum_name(v));
  } else if constexpr (std::is_floating_point_v<T>) {
    jw.value_exact(static_cast<double>(v));
  } else {
    jw.value(v);  // bool, string, integers
  }
}

/// Inverse of put_json for the members of object `obj`; every field is
/// required (JsonValue::at throws naming a missing one).
template <Visited R>
void get_json(const JsonValue& obj, R& rec) {
  visit_fields(rec, [&obj](const std::string& name, auto& v) {
    using T = std::remove_cvref_t<decltype(v)>;
    if constexpr (Visited<T>) {
      get_json(obj.at(name), v);
    } else if constexpr (kIsVector<T>) {
      const JsonValue& a = obj.at(name);
      if (a.kind != JsonValue::Kind::kArray)
        throw JsonError("field '" + name + "' is not an array");
      for (const JsonValue& e : a.array) get_json(e, v.emplace_back());
    } else if constexpr (std::is_same_v<T, StatSet>) {
      const JsonValue& stats = obj.at(name);
      if (stats.kind != JsonValue::Kind::kObject)
        throw JsonError("field '" + name + "' is not an object");
      for (const auto& [counter, c] : stats.object)
        v.set(counter, stats.get_u64(counter));
    } else if constexpr (CountedEnum<T>) {
      const std::string s = obj.get_string(name);
      u32 i = 0;
      while (i < enum_count(T{}) && s != enum_name(static_cast<T>(i))) ++i;
      if (i == enum_count(T{}))
        throw JsonError("field '" + name + "' has unknown value '" + s + "'");
      v = static_cast<T>(i);
    } else if constexpr (std::is_same_v<T, bool>) {
      v = obj.get_bool(name);
    } else if constexpr (std::is_same_v<T, std::string>) {
      v = obj.get_string(name);
    } else if constexpr (std::is_floating_point_v<T>) {
      v = static_cast<T>(obj.get_double(name));
    } else if constexpr (std::is_signed_v<T>) {
      v = static_cast<T>(obj.get_i64(name));
    } else {
      static_assert(std::is_unsigned_v<T>, "no JSON decoding for this type");
      v = static_cast<T>(obj.get_u64(name));
    }
  });
}

}  // namespace

void put_result_fields(JsonWriter& jw, const ScenarioResult& r) {
  put_json_fields(jw, r);
}

std::string result_to_jsonl(const ScenarioResult& r) {
  JsonWriter jw = JsonWriter::compact();
  put_json(jw, r);
  return jw.str();
}

ScenarioResult result_from_jsonl(const std::string& line) {
  ScenarioResult r;
  get_json(parse_json(line), r);
  return r;
}

}  // namespace higpu::exp
