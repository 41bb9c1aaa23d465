#include "analyze/sarif.hpp"

#include <ostream>

#include "analyze/rules.hpp"

namespace flotilla::analyze {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          static const char* hex = "0123456789abcdef";
          out += "\\u00";
          out += hex[(c >> 4) & 0xf];
          out += hex[c & 0xf];
        } else {
          out += c;
        }
    }
  }
  return out;
}

void write_sarif(std::ostream& os, const std::string& tool_name,
                 const std::vector<std::string>& rule_ids,
                 const std::vector<Finding>& findings) {
  os << "{\n";
  os << "  \"$schema\": "
        "\"https://json.schemastore.org/sarif-2.1.0.json\",\n";
  os << "  \"version\": \"2.1.0\",\n";
  os << "  \"runs\": [\n";
  os << "    {\n";
  os << "      \"tool\": {\n";
  os << "        \"driver\": {\n";
  os << "          \"name\": \"" << json_escape(tool_name) << "\",\n";
  os << "          \"rules\": [\n";
  for (std::size_t i = 0; i < rule_ids.size(); ++i) {
    const char* tail = i + 1 < rule_ids.size() ? "," : "";
    const RuleMeta* meta = find_rule_meta(rule_ids[i]);
    if (meta == nullptr) {
      os << "            {\"id\": \"" << json_escape(rule_ids[i]) << "\"}"
         << tail << "\n";
      continue;
    }
    os << "            {\n";
    os << "              \"id\": \"" << json_escape(rule_ids[i]) << "\",\n";
    os << "              \"fullDescription\": {\"text\": \""
       << json_escape(meta->summary) << "\"},\n";
    os << "              \"helpUri\": \"docs/correctness.md#"
       << json_escape(meta->anchor) << "\",\n";
    os << "              \"defaultConfiguration\": {\"level\": "
          "\"error\"}\n";
    os << "            }" << tail << "\n";
  }
  os << "          ]\n";
  os << "        }\n";
  os << "      },\n";
  os << "      \"results\": [\n";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    os << "        {\n";
    os << "          \"ruleId\": \"" << json_escape(f.rule) << "\",\n";
    os << "          \"level\": \"error\",\n";
    os << "          \"message\": {\"text\": \"" << json_escape(f.message)
       << "\"},\n";
    os << "          \"locations\": [\n";
    os << "            {\n";
    os << "              \"physicalLocation\": {\n";
    os << "                \"artifactLocation\": {\"uri\": \""
       << json_escape(f.file) << "\"},\n";
    os << "                \"region\": {\"startLine\": " << f.line << "}\n";
    os << "              }\n";
    os << "            }\n";
    os << "          ]\n";
    os << "        }" << (i + 1 < findings.size() ? "," : "") << "\n";
  }
  os << "      ]\n";
  os << "    }\n";
  os << "  ]\n";
  os << "}\n";
}

void write_text(std::ostream& os, const std::vector<Finding>& findings) {
  for (const Finding& f : findings) {
    os << f.file << ":" << f.line << ": error: [" << f.rule << "] "
       << f.message << "\n";
  }
}

}  // namespace flotilla::analyze
