"""README's "Public API" section lists exactly what ``chowfan`` exports.

Every bare identifier in backticks in that section (``name``, not
``module.name`` or an expression) must be a public name of the package,
and every public name of the package (modules aside) must appear there.
"""

import re
import types
from pathlib import Path

import chowfan

README = Path(__file__).resolve().parent.parent / "README.md"


def _listed(text):
    """The bare backticked identifiers of the "## Public API" section."""
    section = text.split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
    return set(re.findall(r"`([A-Za-z_]\w*)`", section))


def _exported():
    return {
        name
        for name, value in vars(chowfan).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }


def test_readme_lists_exactly_the_exports():
    listed = _listed(README.read_text())
    exported = _exported()
    assert sorted(exported - listed) == [], "exported but not in README"
    assert sorted(listed - exported) == [], "in README but not exported"


def test_listing_reads_bare_names_of_the_section_only():
    text = (
        "intro `outside`\n"
        "\n## Public API\n\n"
        "* `Cone`, `cones.image_cone`, `cq.cone_data[k]`, `==`, `fan_from_cones`\n"
        "\n## Command line\n`after`\n"
    )
    assert _listed(text) == {"Cone", "fan_from_cones"}
