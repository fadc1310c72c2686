#include "core/dataset.h"

#include <gtest/gtest.h>

#include <memory>

namespace blowfish {
namespace {

std::shared_ptr<const Domain> MakeLine(uint64_t size) {
  return std::make_shared<const Domain>(Domain::Line(size).value());
}

TEST(DatasetTest, CreateValidatesValues) {
  auto dom = MakeLine(4);
  EXPECT_TRUE(Dataset::Create(dom, {0, 1, 2, 3}).ok());
  EXPECT_FALSE(Dataset::Create(dom, {0, 4}).ok());
}

TEST(DatasetTest, SizeAndAccess) {
  auto dom = MakeLine(4);
  Dataset d = Dataset::Create(dom, {3, 1, 1}).value();
  EXPECT_EQ(d.size(), 3u);
  EXPECT_EQ(d.tuple(0), 3u);
  EXPECT_EQ(d.tuple(2), 1u);
}

TEST(DatasetTest, WithTuple) {
  auto dom = MakeLine(4);
  Dataset d = Dataset::Create(dom, {3, 1, 1}).value();
  Dataset e = d.WithTuple(1, 2).value();
  EXPECT_EQ(e.tuple(1), 2u);
  EXPECT_EQ(d.tuple(1), 1u);  // original untouched
  EXPECT_FALSE(d.WithTuple(5, 0).ok());
  EXPECT_FALSE(d.WithTuple(0, 9).ok());
}

TEST(DatasetTest, CompleteHistogram) {
  auto dom = MakeLine(4);
  Dataset d = Dataset::Create(dom, {0, 0, 2, 3, 3, 3}).value();
  Histogram h = d.CompleteHistogram().value();
  ASSERT_EQ(h.size(), 4u);
  EXPECT_DOUBLE_EQ(h[0], 2.0);
  EXPECT_DOUBLE_EQ(h[1], 0.0);
  EXPECT_DOUBLE_EQ(h[2], 1.0);
  EXPECT_DOUBLE_EQ(h[3], 3.0);
  EXPECT_DOUBLE_EQ(h.Total(), 6.0);
}

TEST(DatasetTest, PointsEmbedding) {
  auto dom = std::make_shared<const Domain>(
      Domain::Create({Attribute{"x", 4, 2.0}, Attribute{"y", 4, 1.0}})
          .value());
  Dataset d = Dataset::Create(dom, {dom->Encode({1, 3})}).value();
  auto points = d.Points();
  ASSERT_EQ(points.size(), 1u);
  EXPECT_DOUBLE_EQ(points[0][0], 2.0);
  EXPECT_DOUBLE_EQ(points[0][1], 3.0);
}

TEST(DatasetTest, EmptyDatasetIsFine) {
  auto dom = MakeLine(4);
  Dataset d = Dataset::Create(dom, {}).value();
  EXPECT_EQ(d.size(), 0u);
  EXPECT_DOUBLE_EQ(d.CompleteHistogram().value().Total(), 0.0);
}

}  // namespace
}  // namespace blowfish
