/**
 * @file
 * Tests for JSON serialization of model inputs and results.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "core/serialize.h"
#include "soc/catalog.h"

namespace gables {
namespace {

TEST(Serialize, SocSpecFields)
{
    std::ostringstream oss;
    JsonWriter writer(oss);
    writeJson(writer, SocCatalog::paperTwoIp());
    std::string json = oss.str();
    EXPECT_NE(json.find("\"name\": \"paper two-IP\""),
              std::string::npos);
    EXPECT_NE(json.find("\"ppeak_ops_per_sec\": 40000000000"),
              std::string::npos);
    EXPECT_NE(json.find("\"acceleration\": 5"), std::string::npos);
    EXPECT_NE(json.find("\"ips\""), std::string::npos);
}

TEST(Serialize, UsecaseFields)
{
    std::ostringstream oss;
    JsonWriter writer(oss);
    writeJson(writer, Usecase::twoIp("6b", 0.75, 8.0, 0.1));
    std::string json = oss.str();
    EXPECT_NE(json.find("\"name\": \"6b\""), std::string::npos);
    EXPECT_NE(json.find("\"fraction\": 0.25"), std::string::npos);
    EXPECT_NE(json.find("\"intensity_ops_per_byte\": 0.1"),
              std::string::npos);
    EXPECT_NE(json.find("\"average_intensity\": 0.1327"),
              std::string::npos);
}

TEST(Serialize, FullEvaluation)
{
    SocSpec soc = SocCatalog::paperTwoIp();
    Usecase u = Usecase::twoIp("6b", 0.75, 8.0, 0.1);
    GablesResult r = GablesModel::evaluate(soc, u);
    std::ostringstream oss;
    writeJson(oss, soc, u, r);
    std::string json = oss.str();
    EXPECT_NE(json.find("\"soc\""), std::string::npos);
    EXPECT_NE(json.find("\"usecase\""), std::string::npos);
    EXPECT_NE(json.find("\"result\""), std::string::npos);
    EXPECT_NE(json.find("\"bottleneck\": \"memory interface\""),
              std::string::npos);
    EXPECT_NE(json.find("\"bottleneck_ip\": -1"), std::string::npos);
    // The attainable bound (1.3278e9) appears in full precision.
    EXPECT_NE(json.find("\"attainable_ops_per_sec\": 1327"),
              std::string::npos);
}

TEST(Serialize, BalancedJsonIsWellFormedEnoughToCount)
{
    // Cheap structural check: brace/bracket balance.
    SocSpec soc = SocCatalog::snapdragon835();
    Usecase u("u", {IpWork{0.3, 4.0}, IpWork{0.6, 2.0},
                    IpWork{0.1, 1.0}});
    std::ostringstream oss;
    writeJson(oss, soc, u, GablesModel::evaluate(soc, u));
    std::string json = oss.str();
    int braces = 0, brackets = 0;
    for (char c : json) {
        braces += (c == '{') - (c == '}');
        brackets += (c == '[') - (c == ']');
    }
    EXPECT_EQ(braces, 0);
    EXPECT_EQ(brackets, 0);
}

} // namespace
} // namespace gables
