/**
 * @file
 * The one JSON string writer. Reports, metrics, traces, sweep reports
 * and sweep journals all quote their strings here, so every emitted
 * document is valid JSON whatever bytes its strings hold, and
 * core::JsonScanner::readString decodes each string back exactly.
 */

#ifndef CCHAR_OBS_JSON_HH
#define CCHAR_OBS_JSON_HH

#include <ostream>
#include <string_view>

namespace cchar::obs {

/**
 * Write `s` as a quoted JSON string. '"', '\\' and every byte below
 * 0x20 are escaped: \n \t \r \b \f in short form, the rest as \u00XX.
 * All other bytes (UTF-8 sequences included) pass through verbatim.
 */
inline void
writeJsonString(std::ostream &os, std::string_view s)
{
    // The bytes with a short escape, and the letter each escapes to.
    static constexpr std::string_view kShort{"\"\\\n\t\r\b\f"};
    static constexpr char kShortLetter[] = "\"\\ntrbf";
    static constexpr char kHex[] = "0123456789abcdef";
    os << '"';
    std::size_t verbatim = 0; // start of the pending unescaped run
    for (std::size_t i = 0; i < s.size(); ++i) {
        const auto c = static_cast<unsigned char>(s[i]);
        if (c >= 0x20 && c != '"' && c != '\\')
            continue;
        os.write(s.data() + verbatim,
                 static_cast<std::streamsize>(i - verbatim));
        verbatim = i + 1;
        if (std::size_t k = kShort.find(s[i]); k != kShort.npos)
            os << '\\' << kShortLetter[k];
        else
            os << "\\u00" << kHex[c >> 4] << kHex[c & 0xf];
    }
    os.write(s.data() + verbatim,
             static_cast<std::streamsize>(s.size() - verbatim));
    os << '"';
}

} // namespace cchar::obs

#endif // CCHAR_OBS_JSON_HH
