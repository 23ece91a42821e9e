"""Visual-inertial SLAM backend with rigid pose-graph loop closure and a Gaussian map."""

__version__ = "0.1.0"
