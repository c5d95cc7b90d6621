#include "util/flags.hpp"

#include <algorithm>
#include <charconv>

namespace lossburst::util {

namespace {

/// Concatenation for messages (one append per part).
std::string cat(std::initializer_list<std::string_view> parts) {
  std::string out;
  for (const std::string_view p : parts) out.append(p);
  return out;
}

}  // namespace

FlagSet operator+(FlagSet a, const FlagSet& b) {
  a.insert(a.end(), b.begin(), b.end());
  return a;
}

std::string usage_text(std::string_view program, const FlagSet& spec) {
  std::string out = "usage: ";
  out.append(program).append(spec.empty() ? "\n" : " [options]\n");
  std::size_t width = 0;
  for (const FlagSpec& f : spec) {
    width = std::max(width, f.name.size() + (f.takes_value() ? f.value_name.size() + 1 : 0));
  }
  for (const FlagSpec& f : spec) {
    const std::size_t start = out.size();
    out.append("  --").append(f.name);
    if (f.takes_value()) out.append(" ").append(f.value_name);
    if (!f.help.empty()) out.append(start + width + 6 - out.size(), ' ').append(f.help);
    out.append("\n");
  }
  return out;
}

Flags::Flags(std::span<char* const> args, FlagSet spec) : spec_(std::move(spec)) {
  for (std::size_t i = 0; i < args.size(); ++i) {
    std::string_view token = args[i];
    if (token == "-h" && declares("help")) token = "--help";
    if (token.size() < 3 || token.substr(0, 2) != "--") {
      throw FlagError(cat({"unexpected argument '", token, "'"}));
    }
    token.remove_prefix(2);
    const std::size_t eq = token.find('=');
    const std::string_view name = token.substr(0, eq);
    const auto it = std::find_if(spec_.begin(), spec_.end(),
                                 [&](const FlagSpec& f) { return f.name == name; });
    if (it == spec_.end()) throw FlagError(cat({"unknown flag --", name}));
    Given g{it->name, {}};
    if (!it->takes_value()) {
      if (eq != std::string_view::npos) throw FlagError(cat({"--", name, " takes no value"}));
    } else if (eq != std::string_view::npos) {
      g.value = token.substr(eq + 1);
    } else if (i + 1 < args.size() && std::string_view(args[i + 1]).substr(0, 2) != "--") {
      g.value = args[++i];
    } else {
      throw FlagError(cat({"--", name, " needs a value (", it->value_name, ")"}));
    }
    given_.push_back(std::move(g));
  }
}

bool Flags::declares(std::string_view name) const {
  return std::any_of(spec_.begin(), spec_.end(),
                     [&](const FlagSpec& f) { return f.name == name; });
}

const FlagSpec& Flags::spec_of(std::string_view name) const {
  for (const FlagSpec& f : spec_) {
    if (f.name == name) return f;
  }
  throw std::logic_error(cat({"flag --", name, " queried but not declared"}));
}

const std::string* Flags::value_of(std::string_view name) const {
  (void)spec_of(name);
  for (auto it = given_.rbegin(); it != given_.rend(); ++it) {
    if (it->name == name) return &it->value;
  }
  return nullptr;
}

const std::string* Flags::typed_value_of(std::string_view name, bool takes_value) const {
  if (spec_of(name).takes_value() != takes_value) {
    throw std::logic_error(cat({"flag --", name, " queried with the wrong type"}));
  }
  return value_of(name);
}

bool Flags::flag(std::string_view name) const { return typed_value_of(name, false) != nullptr; }

bool Flags::has(std::string_view name) const { return value_of(name) != nullptr; }

std::string Flags::text(std::string_view name, std::string fallback) const {
  const std::string* v = typed_value_of(name, true);
  return v == nullptr ? std::move(fallback) : *v;
}

std::uint64_t Flags::integer(std::string_view name, std::uint64_t fallback, std::uint64_t lo,
                             std::uint64_t hi) const {
  const std::string* v = typed_value_of(name, true);
  if (v == nullptr) return fallback;
  std::uint64_t out = 0;
  const char* end = v->data() + v->size();
  const auto [ptr, ec] = std::from_chars(v->data(), end, out);
  if (v->empty() || ec == std::errc::invalid_argument || ptr != end) {
    throw FlagError(cat({"--", name, ": '", *v, "' is not a non-negative integer"}));
  }
  if (ec == std::errc::result_out_of_range || out < lo || out > hi) {
    throw FlagError(cat({"--", name, ": ", *v, " is out of range [", std::to_string(lo), ", ",
                         std::to_string(hi), "]"}));
  }
  return out;
}

double Flags::number(std::string_view name, double fallback, double lo, double hi) const {
  const std::string* v = typed_value_of(name, true);
  if (v == nullptr) return fallback;
  double out = 0.0;
  const char* end = v->data() + v->size();
  const auto [ptr, ec] = std::from_chars(v->data(), end, out);
  if (v->empty() || ec != std::errc{} || ptr != end || !(out >= lo && out <= hi)) {
    char range[64];
    std::snprintf(range, sizeof(range), "[%g, %g]", lo, hi);
    throw FlagError(cat({"--", name, ": '", *v, "' is not a number in ", range}));
  }
  return out;
}

}  // namespace lossburst::util
