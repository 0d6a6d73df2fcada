#include "data/diabetes_prep.h"

#include <cmath>
#include <cstdlib>
#include <map>
#include <unordered_map>

#include "data/binning.h"
#include "data/csv.h"

namespace dpclustx::diabetes {

namespace {

// Fixed bin edges per numeric column, chosen to match the paper's
// interpretable ranges (e.g. lab procedures in decades, Fig. 2).
const std::map<std::string, std::vector<double>>& NumericColumnEdges() {
  static const auto* edges = new std::map<std::string, std::vector<double>>{
      {"time_in_hospital", {1, 3, 5, 7, 9, 11, 15}},
      {"num_lab_procedures", {0, 10, 20, 30, 40, 50, 60, 70, 140}},
      {"num_procedures", {0, 1, 2, 3, 7}},
      {"num_medications", {0, 5, 10, 15, 20, 25, 30, 90}},
      {"number_outpatient", {0, 1, 2, 5, 50}},
      {"number_emergency", {0, 1, 2, 5, 80}},
      {"number_inpatient", {0, 1, 2, 5, 25}},
      {"number_diagnoses", {1, 3, 5, 7, 9, 17}},
  };
  return *edges;
}

bool ParseNumeric(const std::string& raw, double* out) {
  if (raw.empty() || raw == "?") return false;
  char* end = nullptr;
  *out = std::strtod(raw.c_str(), &end);
  return end != nullptr && *end == '\0';
}

}  // namespace

const std::vector<std::string>& DiagnosisCategories() {
  static const auto* categories = new std::vector<std::string>{
      "Circulatory", "Respiratory", "Digestive",      "Diabetes",
      "Injury",      "Musculoskeletal", "Genitourinary", "Neoplasms",
      "Other"};
  return *categories;
}

std::string Icd9Category(const std::string& code) {
  if (code.empty() || code == "?") return "Other";
  // Supplementary E/V codes group to Other.
  if (code[0] == 'E' || code[0] == 'V' || code[0] == 'e' || code[0] == 'v') {
    return "Other";
  }
  char* end = nullptr;
  const double value = std::strtod(code.c_str(), &end);
  // Out-of-range values ("1e300") would make the int cast undefined.
  if (end == code.c_str() || !(std::fabs(value) < 1e6)) return "Other";
  const int icd = static_cast<int>(value);
  if (icd == 250) return "Diabetes";  // 250.xx
  if ((icd >= 390 && icd <= 459) || icd == 785) return "Circulatory";
  if ((icd >= 460 && icd <= 519) || icd == 786) return "Respiratory";
  if ((icd >= 520 && icd <= 579) || icd == 787) return "Digestive";
  if (icd >= 800 && icd <= 999) return "Injury";
  if (icd >= 710 && icd <= 739) return "Musculoskeletal";
  if ((icd >= 580 && icd <= 629) || icd == 788) return "Genitourinary";
  if (icd >= 140 && icd <= 239) return "Neoplasms";
  return "Other";
}

const std::vector<std::string>& SpecialtyGroups() {
  static const auto* groups = new std::vector<std::string>{
      "Missing",          "InternalMedicine", "General Practice",
      "Cardiology",       "Surgery",          "Emergency",
      "Family/GeneralPractice", "Pediatrics", "Other"};
  return *groups;
}

std::string MedicalSpecialtyGroup(const std::string& specialty) {
  if (specialty.empty() || specialty == "?") return "Missing";
  if (specialty == "InternalMedicine") return "InternalMedicine";
  if (specialty == "Family/GeneralPractice") return "Family/GeneralPractice";
  if (specialty == "GeneralPractice" || specialty == "General Practice") {
    return "General Practice";
  }
  if (specialty.rfind("Cardiology", 0) == 0) return "Cardiology";
  if (specialty.rfind("Surgery", 0) == 0 ||
      specialty.rfind("Surgeon", 0) == 0 ||
      specialty == "SurgicalSpecialty" ||
      specialty.rfind("Orthopedics", 0) == 0) {
    return "Surgery";
  }
  if (specialty.rfind("Emergency", 0) == 0) return "Emergency";
  if (specialty.rfind("Pediatrics", 0) == 0) return "Pediatrics";
  return "Other";
}

StatusOr<Dataset> Preprocess(
    const std::vector<std::vector<std::string>>& rows) {
  if (rows.size() < 2) {
    return Status::InvalidArgument("need a header row and at least one row");
  }
  const std::vector<std::string>& header = rows[0];
  const size_t num_columns = header.size();
  for (size_t r = 1; r < rows.size(); ++r) {
    if (rows[r].size() != num_columns) {
      return Status::InvalidArgument("row " + std::to_string(r) +
                                     " has wrong field count");
    }
  }

  enum class Kind { kDrop, kBinned, kDiagnosis, kSpecialty, kCategorical };
  struct Column {
    Kind kind;
    Binner binner = *Binner::FromEdges("unused", {0.0, 1.0});
  };
  std::vector<Column> columns;
  columns.reserve(num_columns);
  std::vector<Attribute> attrs;
  for (size_t col = 0; col < num_columns; ++col) {
    const std::string& name = header[col];
    if (name == "encounter_id" || name == "patient_nbr") {
      columns.push_back({Kind::kDrop});
      continue;
    }
    const auto edges_it = NumericColumnEdges().find(name);
    if (edges_it != NumericColumnEdges().end()) {
      auto binner = Binner::FromEdges(name, edges_it->second);
      DPX_RETURN_IF_ERROR(binner.status());
      attrs.push_back(binner->ToAttribute());
      columns.push_back({Kind::kBinned, *binner});
      continue;
    }
    if (name == "diag_1" || name == "diag_2" || name == "diag_3") {
      attrs.emplace_back(name, DiagnosisCategories());
      columns.push_back({Kind::kDiagnosis});
      continue;
    }
    if (name == "medical_specialty") {
      attrs.emplace_back(name, SpecialtyGroups());
      columns.push_back({Kind::kSpecialty});
      continue;
    }
    // Plain categorical: infer the domain (first-appearance order).
    std::vector<std::string> domain;
    std::unordered_map<std::string, ValueCode> seen;
    for (size_t r = 1; r < rows.size(); ++r) {
      const auto [it, inserted] = seen.try_emplace(
          rows[r][col], static_cast<ValueCode>(domain.size()));
      if (inserted) domain.push_back(rows[r][col]);
    }
    attrs.emplace_back(name, std::move(domain));
    columns.push_back({Kind::kCategorical});
  }

  Schema schema(std::move(attrs));
  DPX_RETURN_IF_ERROR(schema.Validate());
  Dataset dataset(schema);

  // Per-column code lookup for categorical columns.
  std::vector<std::unordered_map<std::string, ValueCode>> lookup(num_columns);
  {
    size_t attr = 0;
    for (size_t col = 0; col < num_columns; ++col) {
      if (columns[col].kind == Kind::kDrop) continue;
      const Attribute& a = schema.attribute(static_cast<AttrIndex>(attr));
      if (columns[col].kind == Kind::kCategorical ||
          columns[col].kind == Kind::kDiagnosis ||
          columns[col].kind == Kind::kSpecialty) {
        for (size_t v = 0; v < a.domain_size(); ++v) {
          lookup[col][a.label(static_cast<ValueCode>(v))] =
              static_cast<ValueCode>(v);
        }
      }
      ++attr;
    }
  }

  std::vector<ValueCode> codes(schema.num_attributes());
  for (size_t r = 1; r < rows.size(); ++r) {
    size_t attr = 0;
    for (size_t col = 0; col < num_columns; ++col) {
      const Column& column = columns[col];
      if (column.kind == Kind::kDrop) continue;
      const std::string& raw = rows[r][col];
      switch (column.kind) {
        case Kind::kBinned: {
          double value = 0.0;
          // Missing numeric values clamp to the lowest bin.
          codes[attr] = column.binner.CodeFor(
              ParseNumeric(raw, &value) ? value : 0.0);
          break;
        }
        case Kind::kDiagnosis:
          codes[attr] = lookup[col].at(Icd9Category(raw));
          break;
        case Kind::kSpecialty:
          codes[attr] = lookup[col].at(MedicalSpecialtyGroup(raw));
          break;
        case Kind::kCategorical:
          codes[attr] = lookup[col].at(raw);
          break;
        case Kind::kDrop:
          break;
      }
      ++attr;
    }
    dataset.AppendRowUnchecked(codes);
  }
  return dataset;
}

StatusOr<Dataset> PreprocessCsv(const std::string& path) {
  DPX_ASSIGN_OR_RETURN(const Dataset raw, ReadCsv(path));
  // Re-materialize the raw strings and delegate; simpler than a second CSV
  // code path and the file is read once either way.
  std::vector<std::vector<std::string>> rows;
  rows.reserve(raw.num_rows() + 1);
  std::vector<std::string> header;
  for (size_t a = 0; a < raw.num_attributes(); ++a) {
    header.push_back(raw.schema().attribute(static_cast<AttrIndex>(a))
                         .name());
  }
  rows.push_back(std::move(header));
  for (size_t r = 0; r < raw.num_rows(); ++r) {
    std::vector<std::string> row;
    row.reserve(raw.num_attributes());
    for (size_t a = 0; a < raw.num_attributes(); ++a) {
      const auto attr = static_cast<AttrIndex>(a);
      row.push_back(raw.schema().attribute(attr).label(raw.at(r, attr)));
    }
    rows.push_back(std::move(row));
  }
  return Preprocess(rows);
}

}  // namespace dpclustx::diabetes
