package markov

import ()
