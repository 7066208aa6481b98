#include "diom/file_source.hpp"

#include <sstream>

#include "common/error.hpp"

namespace cq::diom {

using rel::Value;
using rel::ValueType;

FileSource::FileSource(std::string name, rel::Schema schema,
                       std::shared_ptr<common::Clock> clock)
    : name_(std::move(name)),
      schema_(std::move(schema)),
      clock_(clock ? std::move(clock) : std::make_shared<common::VirtualClock>()),
      log_(schema_) {}

std::vector<Value> FileSource::translate(const std::string& line) const {
  std::vector<std::string> fields;
  std::string field;
  std::istringstream is(line);
  while (std::getline(is, field, ',')) fields.push_back(field);
  if (fields.size() != schema_.size()) {
    throw common::ParseError("FileSource '" + name_ + "': line has " +
                             std::to_string(fields.size()) + " fields, schema needs " +
                             std::to_string(schema_.size()) + ": " + line);
  }
  std::vector<Value> values;
  values.reserve(fields.size());
  for (std::size_t i = 0; i < fields.size(); ++i) {
    const std::string& f = fields[i];
    try {
      switch (schema_.at(i).type) {
        case ValueType::kInt:
          values.emplace_back(static_cast<std::int64_t>(std::stoll(f)));
          break;
        case ValueType::kDouble:
          values.emplace_back(std::stod(f));
          break;
        case ValueType::kBool:
          values.emplace_back(f == "true" || f == "1");
          break;
        case ValueType::kString:
        case ValueType::kNull:
          values.emplace_back(f);
          break;
      }
    } catch (const std::exception&) {
      throw common::ParseError("FileSource '" + name_ + "': bad field '" + f +
                               "' for attribute " + schema_.at(i).name);
    }
  }
  return values;
}

std::uint64_t FileSource::write_line(const std::string& line) {
  std::vector<Value> values = translate(line);  // validate before mutating
  const std::uint64_t number = next_line_++;
  lines_.emplace(number, line);
  log_.record_insert(rel::TupleId(number), std::move(values), clock_->tick());
  return number;
}

void FileSource::remove_line(std::uint64_t line_number) {
  auto it = lines_.find(line_number);
  if (it == lines_.end()) {
    throw common::NotFound("FileSource '" + name_ + "': no line " +
                           std::to_string(line_number));
  }
  std::vector<Value> old_values = translate(it->second);
  lines_.erase(it);
  log_.record_delete(rel::TupleId(line_number), std::move(old_values), clock_->tick());
}

void FileSource::replace_line(std::uint64_t line_number, const std::string& line) {
  auto it = lines_.find(line_number);
  if (it == lines_.end()) {
    throw common::NotFound("FileSource '" + name_ + "': no line " +
                           std::to_string(line_number));
  }
  std::vector<Value> new_values = translate(line);
  std::vector<Value> old_values = translate(it->second);
  it->second = line;
  log_.record_modify(rel::TupleId(line_number), std::move(old_values),
                     std::move(new_values), clock_->tick());
}

rel::Relation FileSource::snapshot() const {
  rel::Relation out(schema_);
  for (const auto& [number, line] : lines_) {
    out.append(rel::Tuple(translate(line), rel::TupleId(number)));
  }
  return out;
}

std::vector<delta::DeltaRow> FileSource::pull_deltas(common::Timestamp since) const {
  const delta::DeltaSnapshot snap(log_);
  return snap.net_effect(since);
}

}  // namespace cq::diom
