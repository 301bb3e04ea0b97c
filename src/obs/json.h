/**
 * @file
 * JSON string escaping shared by every JSON writer in the tree: the
 * trace and metrics exports here and the serve layer's JSONL lines.
 */

#ifndef RASENGAN_OBS_JSON_H
#define RASENGAN_OBS_JSON_H

#include <string>

namespace rasengan::obs {

/**
 * @p raw escaped for a JSON string body (quotes not included): `"`,
 * `\` and every byte below 0x20 are escaped, the rest pass through.
 */
std::string jsonEscape(const std::string &raw);

} // namespace rasengan::obs

#endif // RASENGAN_OBS_JSON_H
