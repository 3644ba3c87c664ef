"""Scene-aware attention masking and a small encoder-decoder NMT toolkit."""

__version__ = "0.1.0"

from .masks import Mask, MaskSpec, expand_to_subwords, f_norm  # noqa: F401
from .model import (  # noqa: F401
    DecodeConfig,
    HeadSpec,
    Model,
    ModelConfig,
    TrainConfig,
    aggregated_keys,
    attention,
    train,
    translate,
)
from .semgraph import (  # noqa: F401
    SceneCover,
    UccaGraph,
    UdGraph,
    extract_scenes,
    parse_conllu,
    scene_distance,
    sem_split,
)
