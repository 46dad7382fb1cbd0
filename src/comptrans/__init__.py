"""Compositional machine translation over CFG-based compositional grammars.

Source and target grammars interpret their expressions into one shared
semantic component (the interlingua). Translation analyzes an utterance into
derivation trees, interprets those into semantic derivation trees, generates
target derivation trees, filters the well-formed ones, and renders them back
to utterances. The completeness checkers decide statically whether that
pipeline can ever come back empty.
"""

__version__ = "0.1.0"

# each module's __all__ is the part of its API that the package republishes
from . import completeness, errors, loader, model, parsing, pipeline, trees
from .completeness import *  # noqa: F403
from .errors import *  # noqa: F403
from .loader import *  # noqa: F403
from .model import *  # noqa: F403
from .parsing import *  # noqa: F403
from .pipeline import *  # noqa: F403
from .trees import *  # noqa: F403

__all__ = [name for m in (completeness, errors, loader, model, parsing, pipeline, trees) for name in m.__all__]
