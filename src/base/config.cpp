#include "base/config.hpp"

namespace strt::cfg {

std::vector<Resolution> effective_config() {
  detail::RegistryState& reg = detail::registry();
  const std::lock_guard<std::mutex> lock(reg.mu);
  std::vector<Resolution> out;
  out.reserve(reg.entries.size());
  for (const auto& [key, res] : reg.entries) out.push_back(res);
  return out;
}

namespace {

void append_json_string(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          constexpr char kHex[] = "0123456789abcdef";
          out += "\\u00";
          out += kHex[(c >> 4) & 0xf];
          out += kHex[c & 0xf];
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

}  // namespace

std::string effective_config_json() {
  std::string out = "{";
  bool first = true;
  for (const Resolution& res : effective_config()) {
    if (!first) out += ',';
    first = false;
    append_json_string(out, res.key);
    out += ":{\"value\":";
    append_json_string(out, res.value);
    out += ",\"source\":";
    append_json_string(out, source_name(res.source));
    out += '}';
  }
  out += '}';
  return out;
}

}  // namespace strt::cfg
