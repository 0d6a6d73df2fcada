#include "data/diabetes_prep.h"

#include <fstream>

#include <gtest/gtest.h>

namespace dpclustx::diabetes {
namespace {

TEST(Icd9CategoryTest, MapsPaperRanges) {
  EXPECT_EQ(Icd9Category("428"), "Circulatory");   // heart failure
  EXPECT_EQ(Icd9Category("390"), "Circulatory");
  EXPECT_EQ(Icd9Category("459"), "Circulatory");
  EXPECT_EQ(Icd9Category("785"), "Circulatory");
  EXPECT_EQ(Icd9Category("486"), "Respiratory");
  EXPECT_EQ(Icd9Category("786"), "Respiratory");
  EXPECT_EQ(Icd9Category("540"), "Digestive");
  EXPECT_EQ(Icd9Category("250"), "Diabetes");
  EXPECT_EQ(Icd9Category("250.83"), "Diabetes");
  EXPECT_EQ(Icd9Category("823"), "Injury");
  EXPECT_EQ(Icd9Category("715"), "Musculoskeletal");
  EXPECT_EQ(Icd9Category("599"), "Genitourinary");
  EXPECT_EQ(Icd9Category("788"), "Genitourinary");
  EXPECT_EQ(Icd9Category("197"), "Neoplasms");
}

TEST(Icd9CategoryTest, SupplementaryAndMissingCodesMapToOther) {
  EXPECT_EQ(Icd9Category("E909"), "Other");
  EXPECT_EQ(Icd9Category("V57"), "Other");
  EXPECT_EQ(Icd9Category("?"), "Other");
  EXPECT_EQ(Icd9Category(""), "Other");
  EXPECT_EQ(Icd9Category("365"), "Other");  // outside listed ranges
  EXPECT_EQ(Icd9Category("1e300"), "Other");  // beyond int: no cast
  EXPECT_EQ(Icd9Category("-1e20"), "Other");
}

TEST(Icd9CategoryTest, AllOutputsAreInTheFixedDomain) {
  const auto& domain = DiagnosisCategories();
  for (const char* code :
       {"428", "486", "540", "250.01", "823", "715", "599", "197", "V45",
        "?", "042", "780"}) {
    const std::string category = Icd9Category(code);
    EXPECT_NE(std::find(domain.begin(), domain.end(), category),
              domain.end())
        << code << " -> " << category;
  }
}

TEST(SpecialtyGroupTest, GroupsKnownSpecialties) {
  EXPECT_EQ(MedicalSpecialtyGroup("?"), "Missing");
  EXPECT_EQ(MedicalSpecialtyGroup("InternalMedicine"), "InternalMedicine");
  EXPECT_EQ(MedicalSpecialtyGroup("Cardiology"), "Cardiology");
  EXPECT_EQ(MedicalSpecialtyGroup("Cardiology-Pediatric"), "Cardiology");
  EXPECT_EQ(MedicalSpecialtyGroup("Surgery-Neuro"), "Surgery");
  EXPECT_EQ(MedicalSpecialtyGroup("Surgeon"), "Surgery");
  EXPECT_EQ(MedicalSpecialtyGroup("Orthopedics-Reconstructive"), "Surgery");
  EXPECT_EQ(MedicalSpecialtyGroup("Emergency/Trauma"), "Emergency");
  EXPECT_EQ(MedicalSpecialtyGroup("Dentistry"), "Other");
}

std::vector<std::vector<std::string>> MakeRawRows() {
  return {
      {"encounter_id", "patient_nbr", "age", "num_lab_procedures",
       "medical_specialty", "diag_1", "readmitted"},
      {"1001", "501", "[60-70)", "45", "Cardiology", "428", "NO"},
      {"1002", "502", "[60-70)", "5", "?", "250.02", ">30"},
      {"1003", "503", "[70-80)", "44", "Surgery-General", "823", "NO"},
  };
}

TEST(PreprocessTest, DropsIdentifiersAndTransformsColumns) {
  const auto dataset = Preprocess(MakeRawRows());
  ASSERT_TRUE(dataset.ok()) << dataset.status();
  // 7 raw columns − 2 identifiers = 5 attributes.
  EXPECT_EQ(dataset->num_attributes(), 5u);
  EXPECT_EQ(dataset->num_rows(), 3u);
  EXPECT_FALSE(dataset->schema().FindAttribute("encounter_id").ok());
  EXPECT_FALSE(dataset->schema().FindAttribute("patient_nbr").ok());

  // num_lab_procedures is binned on decade edges: 45 → "[40, 50)".
  const auto lab = dataset->schema().FindAttribute("num_lab_procedures");
  ASSERT_TRUE(lab.ok());
  EXPECT_EQ(dataset->schema().attribute(*lab).label(
                dataset->at(0, *lab)),
            "[40, 50)");
  EXPECT_EQ(dataset->schema().attribute(*lab).label(
                dataset->at(1, *lab)),
            "[0, 10)");

  // diag_1 maps through Icd9Category onto the fixed domain.
  const auto diag = dataset->schema().FindAttribute("diag_1");
  ASSERT_TRUE(diag.ok());
  EXPECT_EQ(dataset->schema().attribute(*diag).domain_size(),
            DiagnosisCategories().size());
  EXPECT_EQ(dataset->schema().attribute(*diag).label(
                dataset->at(0, *diag)),
            "Circulatory");
  EXPECT_EQ(dataset->schema().attribute(*diag).label(
                dataset->at(1, *diag)),
            "Diabetes");
  EXPECT_EQ(dataset->schema().attribute(*diag).label(
                dataset->at(2, *diag)),
            "Injury");

  // medical_specialty groups onto the fixed domain.
  const auto spec = dataset->schema().FindAttribute("medical_specialty");
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(dataset->schema().attribute(*spec).label(
                dataset->at(1, *spec)),
            "Missing");
  EXPECT_EQ(dataset->schema().attribute(*spec).label(
                dataset->at(2, *spec)),
            "Surgery");
}

TEST(PreprocessTest, ValidatesShape) {
  EXPECT_FALSE(Preprocess({}).ok());
  EXPECT_FALSE(Preprocess({{"a", "b"}}).ok());  // header only
  EXPECT_FALSE(Preprocess({{"a", "b"}, {"1"}}).ok());  // ragged
}

TEST(PreprocessCsvTest, EndToEndThroughAFile) {
  const std::string path = testing::TempDir() + "/dpclustx_diabetes_raw.csv";
  {
    std::ofstream out(path);
    out << "encounter_id,patient_nbr,num_medications,diag_1,gender\n"
        << "1,10,12,428,Female\n"
        << "2,20,33,V57,Male\n";
  }
  const auto dataset = PreprocessCsv(path);
  ASSERT_TRUE(dataset.ok()) << dataset.status();
  EXPECT_EQ(dataset->num_attributes(), 3u);
  const auto meds = dataset->schema().FindAttribute("num_medications");
  ASSERT_TRUE(meds.ok());
  EXPECT_EQ(dataset->schema().attribute(*meds).label(
                dataset->at(0, *meds)),
            "[10, 15)");
}

}  // namespace
}  // namespace dpclustx::diabetes
